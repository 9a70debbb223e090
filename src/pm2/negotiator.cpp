#include "pm2/negotiator.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "isomalloc/negotiation.hpp"

namespace pm2 {

namespace {

std::vector<uint8_t> pack_words(const Bitmap& bitmap) {
  ByteWriter w;
  w.put_vector<uint64_t>(bitmap.words());
  return w.take();
}

}  // namespace

Negotiator::Negotiator(iso::Area& area, const iso::SlotManagerConfig& slots,
                       size_t prebuy_slots, fabric::Fabric& fabric,
                       marcel::Scheduler& sched, CorrelationTable& pending)
    : area_(area),
      node_(slots.node),
      n_nodes_(slots.n_nodes),
      prebuy_slots_(prebuy_slots),
      fabric_(fabric),
      sched_(sched),
      pending_(pending),
      slot_mgr_(area, slots) {}

void Negotiator::send(MsgType type, uint32_t dst, uint64_t corr,
                      std::vector<uint8_t> payload) {
  fabric::Message msg;
  msg.type = type;
  msg.dst = dst;
  msg.corr = corr;
  msg.payload = std::move(payload);
  fabric_.send(std::move(msg));
}

void Negotiator::wait_unfrozen() {
  // Only a PM2 thread can park.  Bootstrap callers (the constructor's
  // restore reservations, the comm daemon's and main's stacks) run before
  // this node serves a gather, so they never find the bitmap frozen.  The
  // park drops lock_ as it links (embedded WaitQueue), so no unfreeze can
  // slip between the test and the park.
  while (freeze_ > 0) {
    PM2_CHECK(marcel::Scheduler::self() != nullptr)
        << "slot acquire on a frozen bitmap outside a PM2 thread";
    bitmap_wait_.park_current(lock_);
    lock_.lock();
  }
}

bool Negotiator::settle(size_t first, size_t count) {
  // The evictor holds no lock in its window and passes no marcel switch
  // point there (one decommit call): it runs on another kernel thread, so
  // the spin is one syscall long, like a wait on lock_ held across it.
  if (!slot_mgr_.evicting(first, count)) return false;
  do {
    lock_.unlock();
    sys::cpu_relax();
    lock_.lock();
  } while (slot_mgr_.evicting(first, count));
  return true;
}

std::optional<size_t> Negotiator::take_run(size_t count) {
  std::optional<size_t> s = slot_mgr_.acquire(count);
  // An eviction's late decommit may have undone the acquire's commit.
  if (s && settle(*s, count)) area_.commit(*s, count);
  return s;
}

std::optional<size_t> Negotiator::acquire(size_t count) {
  lock_.lock();
  wait_unfrozen();
  std::optional<size_t> s = take_run(count);
  lock_.unlock();
  if (!s && n_nodes_ > 1 && marcel::Scheduler::self() != nullptr)
    s = negotiate(count);
  return s;
}

std::optional<size_t> Negotiator::try_acquire(size_t count) {
  sys::SpinGuard g(lock_);
  if (freeze_ > 0) return std::nullopt;
  return take_run(count);
}

bool Negotiator::acquire_at(size_t first, size_t count) {
  sys::SpinGuard g(lock_);
  wait_unfrozen();
  if (!slot_mgr_.acquire_at(first, count)) return false;
  settle(first, count);  // the caller commits the run
  return true;
}

void Negotiator::release(size_t first, size_t count) {
  sys::SpinGuard g(lock_);
  if (freeze_ > 0) {
    // The bitmap is inside someone's system-wide critical section; the
    // release mutates only *our* view, but the paper's rule is strict
    // ("No other node is allowed to modify its slot bitmap within this
    // section"), so defer it.  Thread-owned slots are invisible to the
    // negotiation either way, hence no correctness impact.
    deferred_releases_.emplace_back(first, count);
    return;
  }
  slot_mgr_.release(first, count);
}

void Negotiator::cache_away(size_t first, size_t count) {
  lock_.lock();
  std::optional<iso::SlotManager::Run> evicted =
      slot_mgr_.cache_away(first, count);
  lock_.unlock();
  if (!evicted) return;
  area_.decommit(evicted->first, evicted->second);
  sys::SpinGuard g(lock_);
  slot_mgr_.evicted(*evicted);
}

bool Negotiator::take_away(size_t first, size_t count) {
  sys::SpinGuard g(lock_);
  bool hit = slot_mgr_.take_away(first, count);
  // A miss makes the caller commit: not before an eviction's decommit.
  return !settle(first, count) && hit;
}

size_t Negotiator::away_runs() const {
  sys::SpinGuard g(lock_);
  return slot_mgr_.away_runs();
}

std::vector<std::pair<size_t, size_t>> Negotiator::deferred_runs() const {
  sys::SpinGuard g(lock_);
  return deferred_releases_;
}

void Negotiator::unfreeze() {
  lock_.lock();
  if (--freeze_ > 0) {
    lock_.unlock();
    return;
  }
  for (auto [first, count] : deferred_releases_)
    slot_mgr_.release(first, count);
  deferred_releases_.clear();
  // Detach the freeze waiters under the lock, wake them outside (unblock
  // takes ready-deque locks and may spin on a still-switching thread).
  marcel::Thread* chain = bitmap_wait_.pop_all_locked();
  lock_.unlock();
  while (chain != nullptr) {
    marcel::Thread* next = chain->qnext;
    chain->qnext = nullptr;
    chain->qprev = nullptr;
    sched_.unblock(chain);
    chain = next;
  }
}

void Negotiator::lock_system() {
  marcel::Event ev;
  lock_.lock();
  PM2_CHECK(lock_wait_ == nullptr)
      << "two concurrent negotiations on one node";
  lock_wait_ = &ev;
  lock_.unlock();
  if (node_ == 0) {
    on_lock_req(0);
  } else {
    send(kLockReq, 0);
  }
  ev.wait();
  lock_.lock();
  lock_wait_ = nullptr;
  bool lost = peer_lost_;
  peer_lost_ = false;
  lock_.unlock();
  // The global bitmap protocol cannot survive losing a participant (the
  // address-space consensus would silently diverge): abort loudly rather
  // than proceed with a partial view or hang on a grant that never comes.
  PM2_CHECK(!lost) << "peer went down while waiting for the system lock";
  PM2_DEBUG << "system lock granted";
}

void Negotiator::unlock_system() {
  PM2_DEBUG << "releasing system lock";
  if (node_ == 0) {
    on_unlock(0);
  } else {
    send(kUnlock, 0);
  }
}

void Negotiator::grant(uint32_t to) {
  if (to == node_) {
    on_lock_grant();
  } else {
    send(kLockGrant, to);
  }
}

void Negotiator::on_lock_req(uint32_t from) {
  PM2_CHECK(node_ == 0) << "lock request at non-server node";
  lock_.lock();
  const bool grant_now = !lock_held_;
  if (grant_now) {
    lock_held_ = true;
    lock_owner_ = from;
  } else {
    lock_queue_.push_back(from);
  }
  lock_.unlock();
  if (grant_now) grant(from);
}

void Negotiator::on_lock_grant() {
  lock_.lock();
  marcel::Event* waiter = lock_wait_;
  lock_.unlock();
  PM2_CHECK(waiter != nullptr) << "spurious lock grant";
  waiter->set(/*direct_handoff=*/true);
}

void Negotiator::on_unlock(uint32_t from) {
  PM2_CHECK(node_ == 0) << "unlock at non-server node";
  lock_.lock();
  PM2_CHECK(lock_held_ && lock_owner_ == from)
      << "unlock by non-owner " << from;
  lock_held_ = !lock_queue_.empty();
  if (lock_held_) {
    lock_owner_ = lock_queue_.front();
    lock_queue_.erase(lock_queue_.begin());
  }
  const bool handed_on = lock_held_;
  const uint32_t next = lock_owner_;
  lock_.unlock();
  if (handed_on) grant(next);
}

void Negotiator::peer_lost() {
  marcel::Event* waiter = nullptr;
  lock_.lock();
  if (lock_wait_ != nullptr) {
    peer_lost_ = true;
    waiter = lock_wait_;
  }
  lock_.unlock();
  if (waiter != nullptr) waiter->set();
}

void Negotiator::on_gather_req(fabric::Message& msg) {
  // Step (a) seen from a peer: our bitmap becomes read-only until the
  // initiator's kNegoUpdate arrives.  Threads that try to acquire slots
  // meanwhile park; releases are deferred.  Freeze and snapshot atomically
  // under lock_, serialize and send outside.
  Bitmap snapshot;
  lock_.lock();
  // The system lock moves on only once every update of the previous
  // negotiation is acked, so no gather can reach us before the update we
  // still owe the last initiator.
  PM2_CHECK(!remote_gather_) << "gather from node " << msg.src
                             << " while a remote gather is still open";
  remote_gather_ = true;
  ++freeze_;
  snapshot = slot_mgr_.bitmap();
  lock_.unlock();
  PM2_DEBUG << "gather req from " << msg.src;
  send(kGatherResp, msg.src, msg.corr, pack_words(snapshot));
}

void Negotiator::on_nego_update(fabric::Message& msg) {
  PM2_DEBUG << "nego update from " << msg.src;
  ByteReader r(msg.flat());
  auto words = r.get_vector<uint64_t>();
  lock_.lock();
  slot_mgr_.set_bitmap(Bitmap::from_words(area_.n_slots(), std::move(words)));
  PM2_CHECK(remote_gather_) << "negotiation update without gather";
  remote_gather_ = false;
  lock_.unlock();
  unfreeze();
  // The initiator holds the system lock until every peer has acked.
  send(kGatherResp, msg.src, msg.corr);
}

std::vector<uint8_t> Negotiator::await_reply(uint32_t node, MsgType type,
                                             const char* what) {
  // No deadline: gathers and audits run under the system lock, whose own
  // waiter is failed by the peer-down sweep; the sweep also fails this
  // correlation if `node` dies mid-request.
  auto [corr, fut] = pending_.open(node, 0);
  send(type, node, corr);
  fut.wait();
  PM2_CHECK(!fut.failed()) << what << " aborted: " << fut.error();
  return fut.take();
}

void Negotiator::with_system_bitmaps(
    const std::function<void(std::vector<Bitmap>&)>& fn) {
  PM2_CHECK(marcel::Scheduler::self() != nullptr)
      << "system-wide critical section outside a PM2 thread";
  client_mutex_.lock();
  // Freeze our own bitmap against other local threads for the duration.
  lock_.lock();
  ++freeze_;
  lock_.unlock();

  // (a) enter the system-wide critical section.
  lock_system();

  // (b) gather every node's bitmap: ours now that no other initiator can
  // still be updating it, then each peer's in turn (sequential, so the
  // cost grows linearly with the node count, as the paper measured).
  std::vector<Bitmap> bitmaps(n_nodes_);
  lock_.lock();
  bitmaps[node_] = slot_mgr_.bitmap();
  lock_.unlock();
  for (uint32_t node = 0; node < n_nodes_; ++node) {
    if (node == node_) continue;
    std::vector<uint8_t> resp =
        await_reply(node, kGatherReq, "negotiation gather");
    ByteReader r(resp);
    bitmaps[node] =
        Bitmap::from_words(area_.n_slots(), r.get_vector<uint64_t>());
  }

  fn(bitmaps);

  // (e) scatter.  Peers get their update even when nothing changed: the
  // message also releases the freeze their gather reply installed.  Each
  // update is acked (kGatherResp on its correlation), and we unlock only
  // once all are: the next initiator's gather, sent on another link, can
  // then no longer overtake an update and read a stale bitmap.
  std::vector<marcel::Future<std::vector<uint8_t>>> acks;
  for (uint32_t node = 0; node < n_nodes_; ++node) {
    if (node == node_) continue;
    auto [corr, fut] = pending_.open(node, 0);
    send(kNegoUpdate, node, corr, pack_words(bitmaps[node]));
    acks.push_back(std::move(fut));
  }
  lock_.lock();
  slot_mgr_.set_bitmap(std::move(bitmaps[node_]));
  lock_.unlock();
  for (auto& ack : acks) {
    ack.wait();
    PM2_CHECK(!ack.failed()) << "negotiation update aborted: " << ack.error();
  }

  // (f) leave the critical section.
  unlock_system();
  unfreeze();
  client_mutex_.unlock();
  // The comm daemon may hold requests until our freeze lifts
  // (Runtime::dispatch_rpc); pop it out of its blocking receive.
  fabric_.wake();
}

std::optional<size_t> Negotiator::negotiate(size_t run) {
  ++negotiations_initiated_;
  PM2_DEBUG << "negotiating for " << run << " contiguous slots";
  std::optional<size_t> acquired;
  with_system_bitmaps([&](std::vector<Bitmap>& bitmaps) {
    // (c)+(d) global OR, first-fit run, buy the non-local slots.  With
    // pre-buying enabled, first try to win a longer run so the next
    // multi-slot requests stay local (§4.4).
    size_t want = run + prebuy_slots_;
    auto plan = iso::plan_negotiation(bitmaps, node_, want);
    if (!plan && want != run)
      plan = iso::plan_negotiation(bitmaps, node_, run);
    sys::SpinGuard g(lock_);
    ++slot_mgr_.stats().negotiations;
    if (!plan) return;
    iso::apply_plan(bitmaps, node_, *plan);
    for (const iso::Purchase& p : plan->purchases)
      slot_mgr_.stats().negotiated_slots += p.count;
    // Adopt the purchase now and take the requested run (not the pre-buy
    // surplus) for the calling thread *inside* the critical section, so no
    // later negotiation can resell it between unlock and use.  First-fit
    // may land before plan->first_slot: a release between the failed local
    // acquire and our freeze can open an earlier gap, and taking it is
    // fine — the purchased run stays ours for the next request.
    slot_mgr_.set_bitmap(std::move(bitmaps[node_]));
    acquired = take_run(run);
    bitmaps[node_] = slot_mgr_.bitmap();
    PM2_CHECK(acquired.has_value())
        << "negotiated run vanished before acquisition";
  });
  PM2_DEBUG << "negotiation done: acquired="
            << (acquired ? static_cast<long>(*acquired) : -1);
  return acquired;
}

}  // namespace pm2
