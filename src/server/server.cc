#include "server/server.h"

#include <sys/socket.h>
#include <sys/stat.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "ingest/gsb_reader.h"
#include "ingest/pipeline.h"
#include "query/parser.h"
#include "server/net.h"

namespace gstream {
namespace server {

using ingest::BoundedBatchRing;
using ingest::RecordBatch;

// ------------------------------------------------------------ internal types

struct Server::Producer {
  std::string name;
  /// Serializes Edges acceptance across a connection takeover (a reconnect
  /// races the stale connection's last frames).
  std::mutex mu;
  uint64_t accepted = 0;  ///< Records accepted into the ring; guarded by mu.
  std::atomic<uint64_t> acked{0};  ///< Records applied by the engine.
  std::shared_ptr<Conn> conn;      ///< Active connection; guarded by
                                   ///< Server::producers_mu_.
};

struct Server::Conn {
  struct OutFrame {
    std::vector<uint8_t> bytes;
    bool sheddable = false;  ///< Only Notify frames; control frames never shed.
  };

  uint64_t id = 0;
  int fd = -1;
  std::string name;  ///< From Hello; written before the attach op is posted.
  std::shared_ptr<Producer> producer;  ///< Guarded by out_mu (writer reads it).
  std::vector<uint32_t> remap;  ///< client id -> server id; reader-thread only.
  std::thread reader;
  std::thread writer;

  std::mutex out_mu;
  std::condition_variable out_data;
  std::condition_variable out_space;
  std::deque<OutFrame> outbound;
  /// Hard stop: the queue was cleared (shed-counted) and the writer exits
  /// without sending more. Set only by HardClose.
  bool closing = false;
  /// Soft stop: the writer flushes the queue, then exits.
  bool close_after_flush = false;
  std::atomic<uint64_t> notify_shed{0};
};

struct Server::ControlOp {
  enum class Kind : uint8_t { kAttach, kSubscribe, kUnsubscribe, kDetach };
  Kind kind = Kind::kAttach;
  std::shared_ptr<Conn> conn;
  HelloMsg hello;         // kAttach
  SubscribeMsg subscribe;  // kSubscribe
  uint32_t sub_id = 0;     // kUnsubscribe
};

struct Server::NotifyLogEntry {
  uint64_t record_index = 0;
  /// (subscription slot, new-embedding count); slots are stable (never
  /// reused), so log entries survive unsubscribes.
  std::vector<std::pair<size_t, uint64_t>> counts;
};

struct Server::SubSlot {
  std::string client_name;
  uint32_t sub_id = 0;
  QueryId qid = 0;
  uint64_t registered_offset = 0;
  std::string pattern;
  bool active = true;
};

/// One ring batch's contribution to the apply window: producer attribution
/// for advancing acked offsets as records durably apply.
struct Server::Span {
  std::shared_ptr<Producer> producer;
  uint64_t base = 0;
  size_t count = 0;
  size_t applied = 0;
};

bool ParseSlowClientPolicy(const std::string& name, SlowClientPolicy* out) {
  if (name == "block") *out = SlowClientPolicy::kBlock;
  else if (name == "shed") *out = SlowClientPolicy::kShedOldest;
  else if (name == "disconnect") *out = SlowClientPolicy::kDisconnect;
  else return false;
  return true;
}

// ------------------------------------------------------------------ lifecycle

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {}

Server::~Server() {
  bool need_kill = false;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    need_kill = started_ && !stopped_;
  }
  if (need_kill) Kill();
  if (!started_ && listen_fd_ >= 0) CloseFd(listen_fd_);
}

Server::HeapTrim::~HeapTrim() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

bool Server::Start(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (started_) return fail("server already started");
  if (opts_.batch_window < 1) return fail("batch_window must be >= 1");
  if (opts_.batch_threads < 1) return fail("batch_threads must be >= 1");
  if (opts_.ring_capacity < 1) return fail("ring_capacity must be >= 1");
  if (opts_.outbound_capacity < 1) return fail("outbound_capacity must be >= 1");
  if (opts_.notify_log_capacity < 1) return fail("notify_log_capacity must be >= 1");
  if (opts_.heartbeat_millis < 1) return fail("heartbeat_millis must be >= 1");
  if (opts_.idle_timeout_millis < 1) return fail("idle_timeout_millis must be >= 1");
  {
    // The durability contract is the ingest pipeline's: shedding has no
    // replayable prefix, so snapshots (and the journal's resume semantics)
    // require backpressure on the ring.
    ingest::IngestOptions io;
    io.batch_window = opts_.batch_window;
    io.batch_threads = opts_.batch_threads;
    io.ring_capacity = opts_.ring_capacity;
    io.overload = opts_.ingest_overload;
    io.snapshot_every_windows = opts_.snapshot_every_windows;
    io.snapshot_path = opts_.state_path;
    io.window = opts_.window;
    const std::string verr = ingest::ValidateIngestOptions(io);
    if (!verr.empty()) return fail(verr);
  }
  if (opts_.snapshot_every_windows > 0 && opts_.journal_path.empty())
    return fail("snapshot cadence set but no journal path");
  if (!opts_.journal_path.empty() && opts_.state_path.empty())
    return fail("journal path set but no state path");
  if (!opts_.journal_path.empty() &&
      opts_.ingest_overload != ingest::OverloadPolicy::kBlock)
    return fail(
        "journaling requires ingest overload=block (shed records would be "
        "acked without ever reaching the journal)");

  engine_ = CreateEngine(opts_.engine);
  engine_->SetSharedFinalize(opts_.shared_finalize);
  engine_->SetBatchThreads(opts_.batch_threads);
  // Created before recovery so the replay rebuilds the live-edge horizon in
  // the exact manager live splicing continues from.
  window_mgr_ = std::make_unique<temporal::WindowManager>(opts_.window);

  if (!opts_.journal_path.empty()) {
    struct stat st;
    if (::stat(opts_.journal_path.c_str(), &st) == 0) {
      if (!Recover(error)) return false;
    } else {
      journal_ = Journal::Create(opts_.journal_path, error);
      if (journal_ == nullptr) return false;
    }
  }
  acc_.sink = [this](uint64_t index, const UpdateResult& result) {
    FanOut(index, result);
  };

  ring_ = std::make_unique<BoundedBatchRing>(opts_.ring_capacity);
  // The server holds one producer slot for its whole run, so the apply
  // thread's PopFor never reports kDone just because no client is connected;
  // Drain releases it.
  ring_->AddProducer();

  listen_fd_ = ListenTcp(opts_.host, opts_.port, &port_, error);
  if (listen_fd_ < 0) return false;
  started_ = true;
  apply_thread_ = std::thread(&Server::ApplyLoop, this);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return true;
}

bool Server::Recover(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "recovery: " + why;
    return false;
  };
  std::string err;
  auto src = ingest::FileSource::Open(opts_.journal_path, &err);
  if (src == nullptr) return fail(err);

  // Framing scan for the append position: the byte offset after the last
  // valid block (anything beyond is a torn tail — truncated on reopen) and
  // the next block seq.
  ingest::GsbReader scan(*src);
  if (!scan.Open()) return fail(scan.error());
  if ((scan.header().flags & ingest::kGsbFlagStreaming) == 0)
    return fail("journal is not a streaming gsb file");
  std::vector<ingest::GsbBlockRef> blocks;
  if (!scan.ScanBlocks(ingest::CorruptPolicy::kSkip, blocks))
    return fail(scan.error());
  uint64_t valid_bytes = ingest::kGsbHeaderBytes;
  uint32_t next_seq = 0;
  if (!blocks.empty()) {
    valid_bytes = blocks.back().payload_offset + blocks.back().payload_len;
    next_seq = blocks.back().seq + 1;
  }

  ingest::IngestSession session;
  if (!session.Open(*src, ingest::CorruptPolicy::kSkip))
    return fail(session.error());
  const uint32_t dict_journaled =
      static_cast<uint32_t>(session.interner().size());

  ServerState st;
  bool have_state = false;
  struct stat sb;
  if (!opts_.state_path.empty() && ::stat(opts_.state_path.c_str(), &sb) == 0) {
    if (!ReadServerState(opts_.state_path, st, &err)) return fail(err);
    have_state = true;
  }
  if (have_state && st.snap.engine_name != engine_->name())
    return fail("state file was written by engine " + st.snap.engine_name +
                ", this server runs " + engine_->name());

  // Rebuild the subscription registry in original registration order:
  // re-parsing against the replayed dictionary re-interns every literal
  // under its original id, and the explicit qids reproduce the engine's
  // query registry exactly. Patterns are parsed (and validated) up front,
  // but each query is registered with the engine only when the replay
  // reaches its registration offset (the window_begin hook below): the
  // original run registered it at that window boundary, and registering it
  // earlier would let the fast-forward match records the live engine never
  // saw — diverging the boundary counter/fingerprint cross-check and
  // planting pre-registration entries in the rebuilt notification log.
  std::vector<QueryPattern> recovered_patterns;
  recovered_patterns.reserve(st.subscriptions.size());
  for (const SubscriptionRecord& rec : st.subscriptions) {
    ParseResult pr = ParsePattern(rec.pattern, session.mutable_interner());
    if (!pr.ok)
      return fail("subscription '" + rec.pattern + "': " + pr.error);
    recovered_patterns.push_back(std::move(pr.pattern));
    SubSlot slot;
    slot.client_name = rec.client_name;
    slot.sub_id = rec.sub_id;
    slot.qid = rec.qid;
    slot.registered_offset = rec.registered_offset;
    slot.pattern = rec.pattern;
    subs_.push_back(std::move(slot));
    qid_to_slot_[rec.qid] = subs_.size() - 1;
    next_qid_ = std::max(next_qid_, rec.qid + 1);
  }
  // Registration offsets are nondecreasing (applied-record counts at
  // subscribe time), so a cursor suffices.
  size_t next_recovered_sub = 0;
  const auto register_reached = [&](uint64_t next_record_index) {
    while (next_recovered_sub < subs_.size() &&
           subs_[next_recovered_sub].registered_offset <= next_record_index) {
      engine_->AddQuery(subs_[next_recovered_sub].qid,
                        recovered_patterns[next_recovered_sub]);
      ++next_recovered_sub;
    }
  };

  // Replay the journal. Every record block was appended as exactly one
  // applied window, so window_per_block walks the original boundaries —
  // including drain-time partial windows — and the snapshot's offset is a
  // valid boundary by construction. The callback fires only for the
  // post-snapshot tail (the fast-forward prefix is emission-suppressed),
  // which rebuilds the replayable notification log.
  if (have_state) notify_log_start_ = st.snap.record_offset;
  ingest::IngestOptions io;
  io.window_per_block = true;
  io.batch_threads = opts_.batch_threads;
  io.overload = ingest::OverloadPolicy::kBlock;
  io.on_corrupt = ingest::CorruptPolicy::kSkip;
  io.window_begin = register_reached;
  // The journal holds original records only; replay re-derives every expiry
  // deletion into the server's own manager, leaving the live-edge horizon
  // exactly where the crashed process had it.
  io.window = opts_.window;
  if (opts_.window.enabled()) io.window_manager = window_mgr_.get();
  const auto cb = [this](uint64_t index, const UpdateResult& result) {
    for (QueryId qid : result.triggered) recovered_satisfied_.insert(qid);
    if (result.per_query.empty()) return;
    NotifyLogEntry e;
    e.record_index = index;
    for (const auto& [qid, count] : result.per_query) {
      auto it = qid_to_slot_.find(qid);
      if (it == qid_to_slot_.end()) continue;
      // Replay re-registers every subscription before record 0, so a query
      // that joined mid-stream also matches records older than its
      // registration. The live run never delivered those; the rebuilt log
      // must not either, or a resuming client would replay notifications
      // from before it subscribed.
      if (index < subs_[it->second].registered_offset) continue;
      e.counts.emplace_back(it->second, count);
    }
    if (e.counts.empty()) return;
    notify_log_.push_back(std::move(e));
    if (notify_log_.size() > opts_.notify_log_capacity) {
      notify_log_start_ = notify_log_.front().record_index + 1;
      notify_log_.pop_front();
    }
  };
  ingest::IngestStats stats =
      have_state ? ingest::ResumeReplay(*engine_, session, st.snap, io, cb)
                 : session.Replay(*engine_, io, cb);
  if (stats.failed) return fail(stats.error);
  // Subscriptions registered after the last journaled record (or an empty
  // journal) were never reached by a window boundary.
  register_reached(stats.run.updates_applied);

  acc_.stats = stats.run;
  for (QueryId qid : st.snap.satisfied) recovered_satisfied_.insert(qid);
  acc_.satisfied.insert(recovered_satisfied_.begin(),
                        recovered_satisfied_.end());
  applied_records_.store(stats.run.updates_applied);
  windows_finalized_.store(stats.windows_finalized);
  snapshot_records_ = have_state ? st.snap.record_offset : 0;
  expired_edges_.store(window_mgr_->expired_edges());
  expiry_batches_.store(window_mgr_->expiry_batches());
  live_edges_.store(window_mgr_->live_edges());

  // Producer offsets. The journal does not attribute records to producers,
  // so the post-snapshot tail is attributable only when there was exactly
  // one producer — then it all belongs to it (exact resume). With several
  // producers the snapshot offsets stand and clients may resend the tail
  // overlap (§11 documented limitation).
  for (const ProducerRecord& rec : st.producers) {
    auto p = std::make_shared<Producer>();
    p->name = rec.client_name;
    uint64_t acked = rec.acked;
    if (st.producers.size() == 1)
      acked += stats.run.updates_applied - st.snap.record_offset;
    p->accepted = acked;
    p->acked.store(acked);
    producers_.emplace(rec.client_name, std::move(p));
  }

  journal_ = Journal::OpenForAppend(opts_.journal_path, valid_bytes, next_seq,
                                    stats.run.updates_applied, dict_journaled,
                                    session.identity(), error);
  if (journal_ == nullptr) return false;
  journal_dict_synced_ = dict_journaled;
  interner_ = session.mutable_interner();
  return true;
}

void Server::Drain() {
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (!started_ || stopped_ || draining_ || killed_) return;
    draining_ = true;
    conns = conns_;
  }
  ShutdownFd(listen_fd_);
  // Stop reads but keep writes: readers see EOF, finish their in-flight ring
  // pushes, and exit; the writers stay up to flush and deliver Drain frames.
  for (const auto& c : conns) ::shutdown(c->fd, SHUT_RD);
  ring_->ProducerDone();  // release the server's slot -> the ring can finish
  if (apply_thread_.joinable()) apply_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();

  DrainMsg dm;
  dm.applied_records = applied_records_.load();
  dm.snapshot_written = drain_snapshot_written_ ? 1 : 0;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  for (const auto& c : conns) {
    EnqueueOutbound(*c, EncodeDrain(dm), false);
    std::lock_guard<std::mutex> lock(c->out_mu);
    c->close_after_flush = true;
    c->out_data.notify_all();
    c->out_space.notify_all();
  }
  for (const auto& c : conns) {
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
    CloseFd(c->fd);
  }
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  std::lock_guard<std::mutex> lock(conns_mu_);
  stopped_ = true;
}

void Server::Kill() {
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (!started_ || stopped_ || killed_) return;
    killed_ = true;
    conns = conns_;
  }
  ring_->Abort();
  ShutdownFd(listen_fd_);
  for (const auto& c : conns) HardClose(*c);
  if (apply_thread_.joinable()) apply_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  for (const auto& c : conns) {
    HardClose(*c);
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
    CloseFd(c->fd);
  }
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  std::lock_guard<std::mutex> lock(conns_mu_);
  stopped_ = true;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = counters_.connections_accepted.load();
  s.records_accepted = counters_.records_accepted.load();
  s.records_applied = applied_records_.load();
  s.windows_finalized = windows_finalized_.load();
  s.notifications_produced = counters_.notifications_produced.load();
  s.notifications_delivered = counters_.notifications_delivered.load();
  s.notifications_shed = counters_.notifications_shed.load();
  s.duplicate_records_skipped = counters_.duplicate_records_skipped.load();
  s.protocol_errors = counters_.protocol_errors.load();
  s.idle_disconnects = counters_.idle_disconnects.load();
  s.slow_disconnects = counters_.slow_disconnects.load();
  s.snapshots_written = counters_.snapshots_written.load();
  s.expired_edges = expired_edges_.load();
  s.expiry_batches = expiry_batches_.load();
  s.live_edges = live_edges_.load();
  return s;
}

// ---------------------------------------------------------------- accept side

void Server::AcceptLoop() {
  for (;;) {
    const int fd = AcceptTcp(listen_fd_, 200);
    if (fd == -2) {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (draining_ || killed_) return;
      continue;
    }
    if (fd < 0) return;
    if (opts_.sndbuf_bytes > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.sndbuf_bytes,
                   sizeof(opts_.sndbuf_bytes));
    std::shared_ptr<Conn> c;
    bool reject = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (draining_ || killed_) {
        reject = true;
      } else {
        c = std::make_shared<Conn>();
        c->id = next_conn_id_++;
        c->fd = fd;
        conns_.push_back(c);
      }
    }
    if (reject) {
      ErrorMsg m;
      m.code = static_cast<uint16_t>(ErrorCode::kDraining);
      m.message = "server is draining";
      const auto bytes = EncodeError(m);
      SendAll(fd, bytes.data(), bytes.size());
      CloseFd(fd);
      continue;
    }
    ++counters_.connections_accepted;
    c->reader = std::thread(&Server::ReaderLoop, this, c);
    c->writer = std::thread(&Server::WriterLoop, this, c);
  }
}

// ------------------------------------------------------------ per-connection

void Server::ReaderLoop(std::shared_ptr<Conn> cp) {
  Conn& c = *cp;
  ring_->AddProducer();
  bool posted_attach = false;
  std::string err;
  Frame f;

  // Handshake: the first frame must be Hello.
  ReadStatus st = ReadFrame(c.fd, opts_.idle_timeout_millis, f, &err);
  HelloMsg hello;
  bool ok = st == ReadStatus::kOk && f.type == FrameType::kHello &&
            DecodeHello(f.payload, hello);
  if (ok && hello.version != kProtocolVersion) {
    SendErrorAndFlushClose(c, ErrorCode::kProtocol,
                           "protocol version mismatch");
    ok = false;
  } else if (!ok && st != ReadStatus::kClosed) {
    ++counters_.protocol_errors;
    SendErrorAndFlushClose(c, ErrorCode::kProtocol, "expected Hello");
  }

  if (ok) {
    std::shared_ptr<Producer> producer;
    std::shared_ptr<Conn> stale;
    {
      std::lock_guard<std::mutex> lock(producers_mu_);
      auto& slot = producers_[hello.name];
      if (slot == nullptr) {
        slot = std::make_shared<Producer>();
        slot->name = hello.name;
      }
      producer = slot;
      stale = producer->conn;
      producer->conn = cp;
    }
    // A reconnect takes the producer over; the stale connection (if the old
    // socket is still lingering) is hard-closed so it cannot double-feed.
    if (stale != nullptr && stale != cp) HardClose(*stale);
    c.name = hello.name;
    {
      std::lock_guard<std::mutex> lock(c.out_mu);
      c.producer = producer;
    }
    ControlOp op;
    op.kind = ControlOp::Kind::kAttach;
    op.conn = cp;
    op.hello = hello;
    PostOp(std::move(op));
    posted_attach = true;

    for (;;) {
      st = ReadFrame(c.fd, opts_.idle_timeout_millis, f, &err);
      if (st == ReadStatus::kTimeout) {
        ++counters_.idle_disconnects;
        SendErrorAndFlushClose(c, ErrorCode::kIdleTimeout, "idle timeout");
        break;
      }
      if (st == ReadStatus::kClosed) break;
      if (st == ReadStatus::kError) {
        ++counters_.protocol_errors;
        SendErrorAndFlushClose(c, ErrorCode::kProtocol, err);
        break;
      }
      if (!HandleFrame(cp, f)) break;
    }
  }

  ring_->ProducerDone();
  {
    std::lock_guard<std::mutex> lock(producers_mu_);
    if (c.producer != nullptr && c.producer->conn == cp)
      c.producer->conn.reset();
  }
  if (posted_attach) {
    ControlOp op;
    op.kind = ControlOp::Kind::kDetach;
    op.conn = cp;
    PostOp(std::move(op));
  }
  // Flush whatever is queued and let the writer exit — unless the server is
  // draining, in which case the writer stays up for the Drain frame that
  // Drain() enqueues after the final window flushes.
  bool draining;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    draining = draining_;
  }
  if (!draining) {
    std::lock_guard<std::mutex> lock(c.out_mu);
    c.close_after_flush = true;
    c.out_data.notify_all();
    c.out_space.notify_all();
  }
}

bool Server::HandleFrame(const std::shared_ptr<Conn>& cp, Frame& f) {
  Conn& c = *cp;
  switch (f.type) {
    case FrameType::kDict: {
      DictMsg m;
      if (!DecodeDict(f.payload, m)) return ProtocolError(c, "bad Dict frame");
      if (m.first_id > c.remap.size())
        return ProtocolError(c, "dictionary id gap");
      std::lock_guard<std::mutex> lock(interner_mu_);
      for (size_t i = 0; i < m.strings.size(); ++i) {
        const size_t cid = m.first_id + i;
        const uint32_t sid = interner_.Intern(m.strings[i]);
        if (cid < c.remap.size())
          c.remap[cid] = sid;  // resend overlap: idempotent
        else
          c.remap.push_back(sid);
      }
      return true;
    }
    case FrameType::kEdges: {
      EdgesMsg m;
      if (!DecodeEdges(f.payload, m))
        return ProtocolError(c, "bad Edges frame");
      const std::shared_ptr<Producer> producer = c.producer;
      std::vector<EdgeUpdate> fresh;
      uint64_t batch_base = 0;
      {
        std::lock_guard<std::mutex> plock(producer->mu);
        {
          std::lock_guard<std::mutex> lock(producers_mu_);
          if (producer->conn != cp) return false;  // taken over by a reconnect
        }
        uint64_t expect = producer->accepted;
        if (m.base > expect) {
          // A lone producer resuming past a journal recovered without a
          // state file is reclaiming its own prefix; adopt its offset. Any
          // other forward jump is a gap: records would be silently missing.
          bool adopt = false;
          {
            std::lock_guard<std::mutex> lock(producers_mu_);
            adopt = expect == 0 && producers_.size() == 1;
          }
          if (adopt && m.base <= applied_records_.load()) {
            producer->accepted = m.base;
            producer->acked.store(m.base);
            expect = m.base;
          } else {
            SendErrorAndFlushClose(c, ErrorCode::kSequenceGap,
                                   "edges base jumped past the accepted "
                                   "offset");
            return false;
          }
        }
        const uint64_t overlap = expect - m.base;
        if (overlap >= m.records.size()) {
          counters_.duplicate_records_skipped += m.records.size();
          return true;  // full at-least-once resend overlap
        }
        counters_.duplicate_records_skipped += overlap;
        fresh.assign(m.records.begin() + static_cast<ptrdiff_t>(overlap),
                     m.records.end());
        for (EdgeUpdate& u : fresh) {
          if (u.src >= c.remap.size() || u.label >= c.remap.size() ||
              u.dst >= c.remap.size()) {
            ++counters_.protocol_errors;
            SendErrorAndFlushClose(c, ErrorCode::kProtocol,
                                   "record id outside the client dictionary");
            return false;
          }
          u.src = c.remap[u.src];
          u.label = c.remap[u.label];
          u.dst = c.remap[u.dst];
        }
        batch_base = expect;
        producer->accepted = expect + fresh.size();
      }
      RecordBatch batch;
      {
        std::lock_guard<std::mutex> lock(seq_mu_);
        batch.seq = next_push_seq_++;
        batch_meta_[batch.seq] =
            BatchMeta{producer->name, batch_base, fresh.size()};
      }
      counters_.records_accepted += fresh.size();
      batch.records = std::move(fresh);
      // Push OUTSIDE every lock: under kBlock a full ring blocks here until
      // the apply thread frees space (backpressure chains into TCP).
      const auto pr = ring_->Push(std::move(batch), opts_.ingest_overload);
      if (pr == BoundedBatchRing::PushResult::kOverflow) {
        SendErrorAndFlushClose(c, ErrorCode::kOverload, "ingest ring overflow");
        return false;
      }
      return pr == BoundedBatchRing::PushResult::kOk;
    }
    case FrameType::kSubscribe: {
      ControlOp op;
      op.kind = ControlOp::Kind::kSubscribe;
      op.conn = cp;
      if (!DecodeSubscribe(f.payload, op.subscribe))
        return ProtocolError(c, "bad Subscribe frame");
      PostOp(std::move(op));
      return true;
    }
    case FrameType::kUnsubscribe: {
      UnsubscribeMsg m;
      if (!DecodeUnsubscribe(f.payload, m))
        return ProtocolError(c, "bad Unsubscribe frame");
      ControlOp op;
      op.kind = ControlOp::Kind::kUnsubscribe;
      op.conn = cp;
      op.sub_id = m.sub_id;
      PostOp(std::move(op));
      return true;
    }
    case FrameType::kHeartbeat:
      return true;  // liveness only; ReadFrame already reset the idle clock
    case FrameType::kBye:
      return false;
    default:
      return ProtocolError(c, "unexpected frame type");
  }
}

void Server::WriterLoop(std::shared_ptr<Conn> cp) {
  Conn& c = *cp;
  for (;;) {
    Conn::OutFrame frame;
    bool have = false;
    {
      std::unique_lock<std::mutex> lock(c.out_mu);
      c.out_data.wait_for(
          lock, std::chrono::milliseconds(opts_.heartbeat_millis), [&] {
            return !c.outbound.empty() || c.closing || c.close_after_flush;
          });
      if (c.closing) break;
      if (!c.outbound.empty()) {
        frame = std::move(c.outbound.front());
        c.outbound.pop_front();
        have = true;
        c.out_space.notify_all();
      } else if (c.close_after_flush) {
        break;  // flushed
      }
    }
    if (have) {
      if (!SendAll(c.fd, frame.bytes.data(), frame.bytes.size())) {
        // The in-flight frame dies with the connection too: it is already
        // off the queue, so HardClose's shed sweep cannot see it — count it
        // here or produced == delivered + shed breaks by one.
        if (frame.sheddable) {
          ++counters_.notifications_shed;
          c.notify_shed.fetch_add(1);
        }
        HardClose(c);
        break;
      }
      if (frame.sheddable) ++counters_.notifications_delivered;
    } else {
      // Idle for a heartbeat period: a Progress frame doubles as the server
      // heartbeat and carries the client's durable offsets.
      ProgressMsg m;
      m.applied_records = applied_records_.load();
      {
        std::lock_guard<std::mutex> lock(c.out_mu);
        if (c.producer != nullptr) m.producer_acked = c.producer->acked.load();
      }
      m.notify_shed = c.notify_shed.load();
      const auto bytes = EncodeProgress(m);
      if (!SendAll(c.fd, bytes.data(), bytes.size())) {
        HardClose(c);
        break;
      }
    }
  }
  // Whatever ended the loop, every frame this connection will ever get has
  // been flushed (hard close discards by design) — shut the socket down so
  // the peer sees EOF now rather than at server teardown. The fd itself is
  // closed by Drain/Kill, which own the connection list.
  ShutdownFd(c.fd);
}

// --------------------------------------------------------------- outbound

bool Server::EnqueueOutbound(Conn& c, std::vector<uint8_t> bytes,
                             bool sheddable) {
  std::unique_lock<std::mutex> lock(c.out_mu);
  const auto count_shed = [&] {
    if (sheddable) {
      ++counters_.notifications_shed;
      c.notify_shed.fetch_add(1);
    }
  };
  if (c.closing || c.close_after_flush) {
    count_shed();
    return false;
  }
  bool force = false;
  while (!force && c.outbound.size() >= opts_.outbound_capacity) {
    switch (opts_.slow_client) {
      case SlowClientPolicy::kBlock:
        c.out_space.wait(lock, [&] {
          return c.outbound.size() < opts_.outbound_capacity || c.closing ||
                 c.close_after_flush;
        });
        if (c.closing || c.close_after_flush) {
          count_shed();
          return false;
        }
        break;
      case SlowClientPolicy::kShedOldest: {
        bool dropped = false;
        for (auto it = c.outbound.begin(); it != c.outbound.end(); ++it) {
          if (it->sheddable) {
            c.outbound.erase(it);
            ++counters_.notifications_shed;
            c.notify_shed.fetch_add(1);
            dropped = true;
            break;
          }
        }
        // Control frames never shed: with none sheddable the queue may
        // exceed its capacity rather than lose an ack.
        if (!dropped) force = true;
        break;
      }
      case SlowClientPolicy::kDisconnect: {
        ++counters_.slow_disconnects;
        c.closing = true;
        for (const auto& f : c.outbound) {
          if (f.sheddable) {
            ++counters_.notifications_shed;
            c.notify_shed.fetch_add(1);
          }
        }
        c.outbound.clear();
        count_shed();
        lock.unlock();
        c.out_data.notify_all();
        c.out_space.notify_all();
        ShutdownFd(c.fd);
        return false;
      }
    }
  }
  c.outbound.push_back(Conn::OutFrame{std::move(bytes), sheddable});
  c.out_data.notify_one();
  return true;
}

bool Server::ProtocolError(Conn& c, const std::string& message) {
  ++counters_.protocol_errors;
  SendErrorAndFlushClose(c, ErrorCode::kProtocol, message);
  return false;
}

void Server::SendErrorAndFlushClose(Conn& c, ErrorCode code,
                                    const std::string& message) {
  ErrorMsg m;
  m.code = static_cast<uint16_t>(code);
  m.message = message;
  EnqueueOutbound(c, EncodeError(m), false);
  std::lock_guard<std::mutex> lock(c.out_mu);
  c.close_after_flush = true;
  c.out_data.notify_all();
  c.out_space.notify_all();
}

void Server::HardClose(Conn& c) {
  {
    std::lock_guard<std::mutex> lock(c.out_mu);
    if (!c.closing) {
      c.closing = true;
      // Undelivered notifications die with the connection: count them shed
      // so produced == delivered + shed holds at any quiescent point.
      for (const auto& f : c.outbound) {
        if (f.sheddable) {
          ++counters_.notifications_shed;
          c.notify_shed.fetch_add(1);
        }
      }
      c.outbound.clear();
    }
  }
  c.out_data.notify_all();
  c.out_space.notify_all();
  ShutdownFd(c.fd);
}

// --------------------------------------------------------------- apply side

void Server::PostOp(ControlOp&& op) {
  {
    std::lock_guard<std::mutex> lock(ops_mu_);
    ops_.push_back(std::move(op));
  }
  // The apply thread picks ops up between pops; cut its wait short so a
  // Subscribe round trip does not cost a poll tick.
  ring_->Wake();
}

void Server::ProcessControlOps() {
  std::deque<ControlOp> ops;
  {
    std::lock_guard<std::mutex> lock(ops_mu_);
    ops.swap(ops_);
  }
  for (ControlOp& op : ops) {
    switch (op.kind) {
      case ControlOp::Kind::kAttach: {
        Conn& c = *op.conn;
        HelloAckMsg ack;
        ack.applied_records = acc_.stats.updates_applied;
        ack.notify_log_start = notify_log_start_;
        ack.window_policy = static_cast<uint8_t>(opts_.window.policy);
        ack.window_width = opts_.window.width;
        {
          std::lock_guard<std::mutex> lock(c.out_mu);
          if (c.producer != nullptr)
            ack.producer_acked = c.producer->acked.load();
        }
        uint64_t resume = op.hello.resume_notify;
        if (resume == kNoOffset) {
          ack.resume_status = static_cast<uint8_t>(ResumeStatus::kLive);
        } else if (resume < notify_log_start_) {
          resume = notify_log_start_;
          ack.resume_status = static_cast<uint8_t>(ResumeStatus::kGap);
        } else {
          ack.resume_status = static_cast<uint8_t>(ResumeStatus::kReplayed);
        }
        EnqueueOutbound(c, EncodeHelloAck(ack), false);
        if (op.hello.resume_notify != kNoOffset) {
          for (const NotifyLogEntry& e : notify_log_)
            if (e.record_index >= resume) SendNotifyTo(c, e);
        }
        attached_.push_back(op.conn);
        break;
      }
      case ControlOp::Kind::kSubscribe: {
        Conn& c = *op.conn;
        SubAckMsg ack;
        ack.sub_id = op.subscribe.sub_id;
        size_t found = subs_.size();
        for (size_t i = 0; i < subs_.size(); ++i) {
          if (subs_[i].active && subs_[i].client_name == c.name &&
              subs_[i].sub_id == op.subscribe.sub_id) {
            found = i;
            break;
          }
        }
        if (found != subs_.size()) {
          if (subs_[found].pattern == op.subscribe.pattern) {
            ack.qid = subs_[found].qid;
            ack.status = static_cast<uint8_t>(SubStatus::kReattached);
          } else {
            ack.status = static_cast<uint8_t>(SubStatus::kError);
            ack.message = "sub_id already bound to a different pattern";
          }
        } else {
          ParseResult pr;
          {
            std::lock_guard<std::mutex> lock(interner_mu_);
            pr = ParsePattern(op.subscribe.pattern, interner_);
          }
          if (!pr.ok) {
            ack.status = static_cast<uint8_t>(SubStatus::kError);
            ack.message = pr.error;
          } else {
            const QueryId qid = next_qid_++;
            engine_->AddQuery(qid, pr.pattern);
            SubSlot slot;
            slot.client_name = c.name;
            slot.sub_id = op.subscribe.sub_id;
            slot.qid = qid;
            slot.registered_offset = acc_.stats.updates_applied;
            slot.pattern = op.subscribe.pattern;
            subs_.push_back(std::move(slot));
            qid_to_slot_[qid] = subs_.size() - 1;
            ack.qid = qid;
            ack.status = static_cast<uint8_t>(SubStatus::kNew);
          }
        }
        EnqueueOutbound(c, EncodeSubAck(ack), false);
        break;
      }
      case ControlOp::Kind::kUnsubscribe: {
        for (SubSlot& slot : subs_) {
          if (slot.active && slot.client_name == op.conn->name &&
              slot.sub_id == op.sub_id) {
            engine_->RemoveQuery(slot.qid);
            qid_to_slot_.erase(slot.qid);
            slot.active = false;
            break;
          }
        }
        break;
      }
      case ControlOp::Kind::kDetach: {
        attached_.erase(
            std::remove(attached_.begin(), attached_.end(), op.conn),
            attached_.end());
        break;
      }
    }
  }
}

void Server::FanOut(uint64_t index, const UpdateResult& result) {
  if (result.per_query.empty()) return;
  NotifyLogEntry e;
  e.record_index = index;
  for (const auto& [qid, count] : result.per_query) {
    auto it = qid_to_slot_.find(qid);
    if (it != qid_to_slot_.end()) e.counts.emplace_back(it->second, count);
  }
  if (e.counts.empty()) return;
  for (const auto& c : attached_) SendNotifyTo(*c, e);
  notify_log_.push_back(std::move(e));
  if (notify_log_.size() > opts_.notify_log_capacity) {
    notify_log_start_ = notify_log_.front().record_index + 1;
    notify_log_.pop_front();
  }
}

void Server::SendNotifyTo(Conn& c, const NotifyLogEntry& entry) {
  NotifyMsg m;
  m.record_index = entry.record_index;
  for (const auto& [slot_index, count] : entry.counts) {
    const SubSlot& slot = subs_[slot_index];
    if (slot.active && slot.client_name == c.name)
      m.counts.emplace_back(slot.sub_id, count);
  }
  if (m.counts.empty()) return;
  std::sort(m.counts.begin(), m.counts.end());
  ++counters_.notifications_produced;
  EnqueueOutbound(c, EncodeNotify(m), true);
}

void Server::ApplyWindow(std::vector<EdgeUpdate>& window,
                         std::deque<Span>& spans, size_t n) {
  if (n == 0) return;
  // Any control op posted before these records were pushed applies first, so
  // a subscribe-then-stream client never misses its own stream's matches.
  ProcessControlOps();
  if (journal_ != nullptr) {
    // WAL ordering: the window hits the journal before the engine, so every
    // applied record is durable and a crash replays to a superset boundary.
    std::vector<std::string> delta;
    {
      std::lock_guard<std::mutex> lock(interner_mu_);
      for (size_t i = journal_dict_synced_; i < interner_.size(); ++i)
        delta.push_back(interner_.Lookup(static_cast<uint32_t>(i)));
    }
    std::string err;
    if (!journal_->AppendWindow(delta, window.data(), n, &err)) {
      std::fprintf(stderr, "gstream_server: journal write failed, durability "
                           "disabled: %s\n", err.c_str());
      journal_.reset();
    } else {
      journal_dict_synced_ += static_cast<uint32_t>(delta.size());
    }
  }
  if (window_mgr_->config().enabled()) {
    // Splice each record's due expiry deletions ahead of it in the same
    // engine window (the journal above stores original records only —
    // expiry is event-time deterministic, so recovery re-derives it).
    // Deletions never trigger notifications and never consume record
    // indexes: the notification/resume index space stays in record terms.
    exec_buf_.clear();
    std::vector<uint8_t> is_record;
    for (size_t i = 0; i < n; ++i) {
      window_mgr_->Advance(window[i], exec_buf_);
      is_record.resize(exec_buf_.size(), 0);
      exec_buf_.push_back(window[i]);
      is_record.push_back(1);
    }
    const std::vector<UpdateResult> results =
        engine_->ApplyBatch(exec_buf_.data(), exec_buf_.size());
    for (size_t k = 0; k < results.size(); ++k)
      if (is_record[k] != 0) acc_.Absorb(results[k]);
    expired_edges_.store(window_mgr_->expired_edges(),
                         std::memory_order_relaxed);
    expiry_batches_.store(window_mgr_->expiry_batches(),
                          std::memory_order_relaxed);
    live_edges_.store(window_mgr_->live_edges(), std::memory_order_relaxed);
  } else {
    const std::vector<UpdateResult> results =
        engine_->ApplyBatch(window.data(), n);
    for (const UpdateResult& r : results) acc_.Absorb(r);
  }
  applied_records_.store(acc_.stats.updates_applied, std::memory_order_relaxed);
  windows_finalized_.fetch_add(1, std::memory_order_relaxed);

  size_t left = n;
  while (left > 0 && !spans.empty()) {
    Span& s = spans.front();
    const size_t take = std::min(left, s.count - s.applied);
    s.applied += take;
    left -= take;
    if (s.producer != nullptr) s.producer->acked.store(s.base + s.applied);
    if (s.applied == s.count)
      spans.pop_front();
    else
      break;
  }
  window.erase(window.begin(), window.begin() + static_cast<ptrdiff_t>(n));

  // The cadence counts records, not windows: at light load every window
  // may hold a single record.
  if (opts_.snapshot_every_windows > 0 &&
      acc_.stats.updates_applied - snapshot_records_ >=
          opts_.snapshot_every_windows * opts_.batch_window) {
    snapshot_records_ = acc_.stats.updates_applied;
    WriteSnapshotState();
  }
}

void Server::WriteSnapshotState() {
  if (journal_ == nullptr) return;
  std::string err;
  std::vector<std::string> delta;
  {
    std::lock_guard<std::mutex> lock(interner_mu_);
    for (size_t i = journal_dict_synced_; i < interner_.size(); ++i)
      delta.push_back(interner_.Lookup(static_cast<uint32_t>(i)));
  }
  // Flush subscribe-time interner growth and fsync: the snapshot's offset
  // must be covered by durable journal bytes before the state file commits.
  if (!journal_->SyncDict(delta, &err) || !journal_->Fsync(&err)) {
    std::fprintf(stderr, "gstream_server: snapshot skipped: %s\n", err.c_str());
    return;
  }
  journal_dict_synced_ += static_cast<uint32_t>(delta.size());

  ServerState st;
  st.snap.stream = journal_->identity();
  st.snap.engine_name = engine_->name();
  st.snap.record_offset = acc_.stats.updates_applied;
  st.snap.windows_finalized = windows_finalized_.load();
  st.snap.updates_applied = acc_.stats.updates_applied;
  st.snap.new_embeddings = acc_.stats.new_embeddings;
  st.snap.fingerprint = engine_->StateFingerprint();
  st.snap.satisfied.assign(acc_.satisfied.begin(), acc_.satisfied.end());
  std::sort(st.snap.satisfied.begin(), st.snap.satisfied.end());
  st.snap.ingested_edges = window_mgr_->ingested_edges();
  st.snap.expired_edges = window_mgr_->expired_edges();
  st.snap.removed_edges = window_mgr_->removed_edges();
  st.snap.expiry_batches = window_mgr_->expiry_batches();
  st.snap.live_edges = window_mgr_->live_edges();
  st.snap.watermark = window_mgr_->watermark();
  for (const SubSlot& slot : subs_) {
    if (!slot.active) continue;
    SubscriptionRecord rec;
    rec.client_name = slot.client_name;
    rec.sub_id = slot.sub_id;
    rec.qid = slot.qid;
    rec.registered_offset = slot.registered_offset;
    rec.pattern = slot.pattern;
    st.subscriptions.push_back(std::move(rec));
  }
  {
    std::lock_guard<std::mutex> lock(producers_mu_);
    for (const auto& [name, p] : producers_)
      st.producers.push_back(ProducerRecord{name, p->acked.load()});
  }
  if (!WriteServerState(opts_.state_path, st, &err)) {
    std::fprintf(stderr, "gstream_server: snapshot skipped: %s\n", err.c_str());
    return;
  }
  ++counters_.snapshots_written;
}

void Server::ApplyLoop() {
  // How long an empty window waits for input before the loop polls again;
  // pushes and Wake (control ops) cut the wait short.
  constexpr int kIdlePollMillis = 20;
  std::map<uint64_t, RecordBatch> pending;
  uint64_t next_seq = 0;
  std::vector<EdgeUpdate> window;
  std::deque<Span> spans;

  const auto consume = [&](RecordBatch& b) {
    BatchMeta meta;
    {
      std::lock_guard<std::mutex> lock(seq_mu_);
      auto it = batch_meta_.find(b.seq);
      if (it != batch_meta_.end()) {
        meta = std::move(it->second);
        batch_meta_.erase(it);
      }
    }
    std::shared_ptr<Producer> producer;
    {
      std::lock_guard<std::mutex> lock(producers_mu_);
      auto it = producers_.find(meta.producer);
      if (it != producers_.end()) producer = it->second;
    }
    window.insert(window.end(), b.records.begin(), b.records.end());
    spans.push_back(Span{std::move(producer), meta.base, b.records.size(), 0});
  };
  // A shed batch never reaches the apply thread: advance its producer's
  // acked past it (the records are lost by policy, not awaited).
  const auto consume_shed = [&](uint64_t seq) {
    BatchMeta meta;
    {
      std::lock_guard<std::mutex> lock(seq_mu_);
      auto it = batch_meta_.find(seq);
      if (it != batch_meta_.end()) {
        meta = std::move(it->second);
        batch_meta_.erase(it);
      }
    }
    std::lock_guard<std::mutex> lock(producers_mu_);
    auto it = producers_.find(meta.producer);
    if (it != producers_.end())
      it->second->acked.store(meta.base + meta.count);
  };
  const auto advance = [&] {
    for (;;) {
      auto it = pending.find(next_seq);
      if (it != pending.end()) {
        consume(it->second);
        pending.erase(it);
        ++next_seq;
        continue;
      }
      if (ring_->TakeShed(next_seq) >= 0) {
        consume_shed(next_seq);
        ++next_seq;
        continue;
      }
      return;
    }
  };

  // Windows batch naturally: an empty window waits for input, a partial one
  // only takes what is already queued. It applies when full, or as soon as
  // the ring runs dry — under load the ring never does and windows stay
  // full, while at light load each record applies at once.
  for (;;) {
    ProcessControlOps();
    RecordBatch batch;
    const auto status =
        ring_->PopFor(batch, window.empty() ? kIdlePollMillis : 0);
    if (status == BoundedBatchRing::PopStatus::kDone) break;
    if (status == BoundedBatchRing::PopStatus::kGot) {
      pending.emplace(batch.seq, std::move(batch));
      advance();
    }
    while (window.size() >= opts_.batch_window)
      ApplyWindow(window, spans, opts_.batch_window);
    if (status == BoundedBatchRing::PopStatus::kTimeout && !window.empty())
      ApplyWindow(window, spans, window.size());
  }

  bool killed;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    killed = killed_;
  }
  if (killed) return;  // crash simulation: no flush, no boundary snapshot

  // Graceful drain: every producer finished, so the leftover batches are a
  // contiguous run from next_seq. Apply them, flush the final partial
  // window, and take the boundary snapshot.
  ProcessControlOps();
  advance();
  while (window.size() >= opts_.batch_window)
    ApplyWindow(window, spans, opts_.batch_window);
  if (!window.empty()) ApplyWindow(window, spans, window.size());
  if (journal_ != nullptr) {
    WriteSnapshotState();
    drain_snapshot_written_ = true;
  }
}

}  // namespace server
}  // namespace gstream
