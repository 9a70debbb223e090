// pm2bench: the repository benchmark's binary.  perfbench/run.py
// builds it and turns its result files into metrics; it can also be run
// directly:
//
//   pm2bench run --workload rpc_open --seed 3 --seconds 10 --out r.json
//   pm2bench run --workload migrate_tour --seed 3 --seconds 10 --out r.json
//     (add --trace-file t.json for the traced run)
//   pm2bench selftest --run-dir .bench_run   # differencing + trace writer
//
// Exit code 0 = every check passed; 1 = a check failed (the failure, the
// seed and a replay command are printed on stderr); 2 = bad usage.
#include <sys/stat.h>

#include <cstdio>
#include <string>

#include "common.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"

int main(int argc, char** argv) {
  pm2::Flags f(argc, argv);
  if (f.positional().empty()) {
    std::fprintf(stderr, "usage: pm2bench run|recover|selftest [flags]\n");
    return 2;
  }
  pm2::log::init_from_env();
  pb::Options o;
  o.workload = f.str("workload", "");
  o.seed = static_cast<uint64_t>(f.i64("seed", 1));
  o.seconds = f.f64("seconds", 10);
  o.run_dir = f.str("run-dir", ".bench_run");
  o.out = f.str("out", o.run_dir + "/result.json");
  o.trace_file = f.str("trace-file", "");
  o.trace = !o.trace_file.empty();
  ::mkdir(o.run_dir.c_str(), 0700);

  const std::string cmd = f.positional()[0];
  if (cmd == "selftest") return pb::run_selftest(o);
  if (cmd == "recover")
    return pb::run_ckpt_recover(o, f.str("store-dir", ""),
                                static_cast<uint32_t>(f.i64("threads", 0)));
  if (cmd != "run") {
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
    return 2;
  }
  if (o.workload == "rpc_open") return pb::run_rpc_open(o);
  if (o.workload == "migrate_tour") return pb::run_migrate_tour(o);
  if (o.workload == "ckpt_cycle") return pb::run_ckpt_cycle(o);
  std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
  return 2;
}
