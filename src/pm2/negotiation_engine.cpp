// Distributed wrapper of the slot negotiation (paper §4.4 steps a–f).
//
// The pure search/purchase logic is in isomalloc/negotiation.*; this file
// adds the protocol: the lock server hosted by node 0 (the system-wide
// critical section), the bitmap gather, the update scatter, and the freeze
// discipline that keeps every node's bitmap immutable while a negotiation
// is in flight.
//
// Locking: the lock-server state and this node's grant-wait event live
// under nego_lock_ (the comm daemon's handlers race worker threads calling
// lock_system/unlock_system); the bitmap, freeze depth, deferred releases
// and the freeze wait-queue live under slot_lock_.  Sends and wake-ups
// always happen outside both.
#include "common/check.hpp"
#include "common/log.hpp"
#include "isomalloc/negotiation.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

void Runtime::lock_system() {
  PM2_CHECK(marcel::Scheduler::self() != nullptr);
  marcel::Event ev;
  bool send_req = false;
  nego_lock_.lock();
  PM2_CHECK(lock_wait_ == nullptr)
      << "two concurrent negotiations on one node";
  if (config_.node == 0) {
    if (!lock_held_) {
      lock_held_ = true;
      lock_owner_ = 0;
      nego_lock_.unlock();
      return;
    }
    lock_wait_ = &ev;
    lock_queue_.push_back(0);
  } else {
    lock_wait_ = &ev;
    send_req = true;
  }
  nego_lock_.unlock();
  if (send_req) {
    fabric::Message msg;
    msg.type = kLockReq;
    msg.dst = 0;
    fabric_->send(std::move(msg));
  }
  ev.wait();
  nego_lock_.lock();
  lock_wait_ = nullptr;
  bool lost = nego_peer_lost_;
  nego_peer_lost_ = false;
  nego_lock_.unlock();
  // The global bitmap protocol cannot survive losing a participant (the
  // address-space consensus would silently diverge): abort loudly rather
  // than proceed with a partial view or hang on a grant that never comes.
  PM2_CHECK(!lost) << "peer went down while waiting for the system lock";
  PM2_DEBUG << "system lock granted";
}

void Runtime::unlock_system() {
  PM2_DEBUG << "releasing system lock";
  if (config_.node == 0) {
    handle_unlock(0);
    return;
  }
  fabric::Message msg;
  msg.type = kUnlock;
  msg.dst = 0;
  fabric_->send(std::move(msg));
}

void Runtime::handle_lock_req(uint32_t from) {
  PM2_CHECK(config_.node == 0) << "lock request at non-server node";
  bool grant_now = false;
  nego_lock_.lock();
  if (!lock_held_) {
    lock_held_ = true;
    lock_owner_ = from;
    grant_now = true;
  } else {
    lock_queue_.push_back(from);
  }
  nego_lock_.unlock();
  if (grant_now) {
    fabric::Message grant;
    grant.type = kLockGrant;
    grant.dst = from;
    fabric_->send(std::move(grant));
  }
}

void Runtime::handle_unlock(uint32_t from) {
  PM2_CHECK(config_.node == 0) << "unlock at non-server node";
  marcel::Event* waiter = nullptr;
  uint32_t next = 0;
  bool grant_remote = false;
  nego_lock_.lock();
  PM2_CHECK(lock_held_ && lock_owner_ == from)
      << "unlock by non-owner " << from;
  if (lock_queue_.empty()) {
    lock_held_ = false;
    nego_lock_.unlock();
    return;
  }
  next = lock_queue_.front();
  lock_queue_.erase(lock_queue_.begin());
  lock_owner_ = next;
  if (next == 0) {
    waiter = lock_wait_;
    PM2_CHECK(waiter != nullptr);
  } else {
    grant_remote = true;
  }
  nego_lock_.unlock();
  if (waiter != nullptr) waiter->set();
  if (grant_remote) {
    fabric::Message grant;
    grant.type = kLockGrant;
    grant.dst = next;
    fabric_->send(std::move(grant));
  }
}

void Runtime::handle_gather_req(fabric::Message& msg) {
  // Step (a) seen from a peer: our bitmap becomes read-only until the
  // initiator's kNegoUpdate arrives.  Threads that try to acquire slots
  // meanwhile park; releases are deferred.  Freeze and snapshot atomically
  // under slot_lock_, serialize and send outside.
  std::vector<uint64_t> words;
  slot_lock_.lock();
  // The system lock moves on only once every update of the previous
  // negotiation is acked, so no gather can reach us before the update we
  // still owe the last initiator.
  PM2_CHECK(!remote_gather_) << "gather from node " << msg.src
                             << " while a remote gather is still open";
  remote_gather_ = true;
  ++bitmap_freeze_;
  words = slot_mgr_.bitmap().words();
  slot_lock_.unlock();
  PM2_DEBUG << "gather req from " << msg.src;
  fabric::Message resp;
  resp.type = kGatherResp;
  resp.dst = msg.src;
  resp.corr = msg.corr;
  ByteWriter w;
  w.put_vector<uint64_t>(words);
  resp.payload = w.take();
  fabric_->send(std::move(resp));
}

void Runtime::handle_nego_update(fabric::Message& msg) {
  PM2_DEBUG << "nego update from " << msg.src;
  ByteReader r(msg.flat());
  auto words = r.get_vector<uint64_t>();
  slot_lock_.lock();
  slot_mgr_.set_bitmap(Bitmap::from_words(area_.n_slots(), std::move(words)));
  PM2_CHECK(bitmap_freeze_ > 0 && remote_gather_)
      << "negotiation update without gather";
  --bitmap_freeze_;
  remote_gather_ = false;
  slot_lock_.unlock();
  apply_deferred_releases();
  // The initiator holds the system lock until every peer has acked.
  fabric::Message ack;
  ack.type = kGatherResp;
  ack.dst = msg.src;
  ack.corr = msg.corr;
  fabric_->send(std::move(ack));
}

void Runtime::apply_deferred_releases() {
  slot_lock_.lock();
  if (bitmap_freeze_ > 0) {
    slot_lock_.unlock();
    return;
  }
  for (auto [first, count] : deferred_releases_)
    slot_mgr_.release(first, count);
  deferred_releases_.clear();
  // Detach the freeze waiters under the lock, wake them outside (unblock
  // takes ready-deque locks and may spin on a still-switching thread).
  marcel::Thread* chain = bitmap_wait_.pop_all_locked();
  slot_lock_.unlock();
  while (chain != nullptr) {
    marcel::Thread* next = chain->qnext;
    chain->qnext = nullptr;
    chain->qprev = nullptr;
    sched_.unblock(chain);
    chain = next;
  }
}

std::vector<uint8_t> Runtime::await_control_reply(uint32_t node,
                                                  MsgType type,
                                                  const char* what) {
  // No deadline: gathers and audits run under the system lock, whose own
  // waiter is failed by the peer-down sweep; the sweep also fails this
  // correlation if `node` dies mid-request.
  auto [corr, fut] = pending_.open(node, 0);
  fabric::Message req;
  req.type = type;
  req.dst = node;
  req.corr = corr;
  fabric_->send(std::move(req));
  fut.wait();
  PM2_CHECK(!fut.failed()) << what << " aborted: " << fut.error();
  return fut.take();
}

std::vector<Bitmap> Runtime::gather_all_bitmaps() {
  PM2_DEBUG << "gathering bitmaps";
  // Sequential per-peer gather: the paper's measured cost grows linearly,
  // ~165 us per extra node.
  std::vector<Bitmap> bitmaps(config_.n_nodes);
  slot_lock_.lock();
  bitmaps[config_.node] = slot_mgr_.bitmap();
  slot_lock_.unlock();
  for (uint32_t node = 0; node < config_.n_nodes; ++node) {
    if (node == config_.node) continue;
    std::vector<uint8_t> resp =
        await_control_reply(node, kGatherReq, "negotiation gather");
    ByteReader r(resp);
    bitmaps[node] =
        Bitmap::from_words(area_.n_slots(), r.get_vector<uint64_t>());
  }
  return bitmaps;
}

void Runtime::scatter_bitmaps(std::vector<Bitmap> bitmaps) {
  // Peers get their update even when nothing changed: the message also
  // releases the freeze their gather reply installed.  Each update is acked
  // (kGatherResp on its correlation), and we return only once all are:
  // the caller then releases the system lock, and the next initiator's
  // gather, sent on another link, can no longer overtake an update and read
  // a stale bitmap.
  std::vector<marcel::Future<std::vector<uint8_t>>> acks;
  for (uint32_t node = 0; node < config_.n_nodes; ++node) {
    if (node == config_.node) continue;
    auto [corr, fut] = pending_.open(node, 0);
    fabric::Message upd;
    upd.type = kNegoUpdate;
    upd.dst = node;
    upd.corr = corr;
    ByteWriter w;
    w.put_vector<uint64_t>(bitmaps[node].words());
    upd.payload = w.take();
    fabric_->send(std::move(upd));
    acks.push_back(std::move(fut));
  }
  slot_lock_.lock();
  slot_mgr_.set_bitmap(std::move(bitmaps[config_.node]));
  slot_lock_.unlock();
  for (auto& ack : acks) {
    ack.wait();
    PM2_CHECK(!ack.failed()) << "negotiation update aborted: " << ack.error();
  }
}

std::optional<size_t> Runtime::negotiate(size_t run) {
  PM2_CHECK(marcel::Scheduler::self() != nullptr)
      << "negotiation outside a PM2 thread";
  ++negotiations_initiated_;
  PM2_DEBUG << "negotiating for " << run << " contiguous slots";

  // One critical-section client per node at a time.
  nego_mutex_.lock();
  // Freeze our own bitmap against other local threads for the duration.
  slot_lock_.lock();
  ++bitmap_freeze_;
  slot_lock_.unlock();

  // (a) enter the system-wide critical section.
  lock_system();

  // (b) gather the local bitmaps of all nodes.
  std::vector<Bitmap> bitmaps = gather_all_bitmaps();

  // (c)+(d) global OR, first-fit run, buy the non-local slots.  With
  // pre-buying enabled, first try to win a longer run so the next
  // multi-slot requests stay local (§4.4).
  size_t want = run + config_.nego_prebuy_slots;
  auto plan = iso::plan_negotiation(bitmaps, config_.node, want);
  if (!plan && want != run)
    plan = iso::plan_negotiation(bitmaps, config_.node, run);
  std::optional<size_t> acquired;
  slot_lock_.lock();
  ++slot_mgr_.stats().negotiations;
  if (plan) {
    for (const iso::Purchase& p : plan->purchases)
      slot_mgr_.stats().negotiated_slots += p.count;
  }
  slot_lock_.unlock();
  if (plan) iso::apply_plan(bitmaps, config_.node, *plan);

  // (e) send back the updated bitmaps.
  scatter_bitmaps(std::move(bitmaps));

  // Take the requested run (not the pre-buy surplus) for the calling
  // thread *inside* the critical section, so no later negotiation can
  // resell it between unlock and use.
  if (plan) {
    slot_lock_.lock();
    acquired = slot_mgr_.acquire(run);
    slot_lock_.unlock();
    // The acquire must succeed (the purchased run is in our bitmap and
    // nobody can take it inside the critical section), but first-fit may
    // land *before* plan->first_slot: between the failed local acquire
    // that triggered this negotiation and the bitmap freeze there is an
    // unfrozen window where a concurrent release_slots can open an
    // earlier local gap of sufficient size.  Taking that gap is fine —
    // the purchased run stays locally owned for the next request.
    PM2_CHECK(acquired.has_value())
        << "negotiated run vanished before acquisition";
  }

  // (f) leave the critical section.
  unlock_system();

  slot_lock_.lock();
  --bitmap_freeze_;
  slot_lock_.unlock();
  apply_deferred_releases();
  nego_mutex_.unlock();
  PM2_DEBUG << "negotiation done: acquired="
            << (acquired ? static_cast<long>(*acquired) : -1);
  return acquired;
}

void Runtime::defragment() {
  PM2_CHECK(marcel::Scheduler::self() != nullptr)
      << "defragment outside a PM2 thread";
  if (config_.n_nodes == 1) return;  // a single bitmap is trivially packed
  PM2_DEBUG << "defragment: waiting for local nego mutex";
  nego_mutex_.lock();
  PM2_DEBUG << "defragment: entering critical section";
  slot_lock_.lock();
  ++bitmap_freeze_;
  slot_lock_.unlock();
  lock_system();
  std::vector<Bitmap> bitmaps = gather_all_bitmaps();
  std::vector<Bitmap> packed = iso::plan_defragmentation(bitmaps);
  scatter_bitmaps(std::move(packed));
  unlock_system();
  slot_lock_.lock();
  --bitmap_freeze_;
  slot_lock_.unlock();
  apply_deferred_releases();
  nego_mutex_.unlock();
  PM2_DEBUG << "defragment: done";
}

}  // namespace pm2
