#ifndef GSTREAM_SERVER_SERVER_H_
#define GSTREAM_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/interning.h"
#include "engine/driver.h"
#include "engine/engine.h"
#include "ingest/ring_buffer.h"
#include "server/journal.h"
#include "server/protocol.h"
#include "server/server_state.h"
#include "time/window.h"

namespace gstream {
namespace server {

/// What the apply thread does when a subscriber's bounded outbound queue is
/// full — the network-side mirror of the ingest ring's OverloadPolicy.
enum class SlowClientPolicy : uint8_t {
  kBlock = 0,       ///< Backpressure: the apply thread waits for queue space,
                    ///< which stalls the ring and ultimately the producers'
                    ///< TCP writes — nothing is lost, everything slows.
  kShedOldest = 1,  ///< Drop the oldest queued *notification* (control frames
                    ///< never shed); counted per client and reported in
                    ///< Progress frames.
  kDisconnect = 2,  ///< Close the slow client; it may reconnect and resume
                    ///< from the notification log.
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the bound port from port().
  EngineKind engine = EngineKind::kTricPlus;

  /// Window/thread semantics identical to IngestOptions (the same apply
  /// machinery runs behind the socket front-end).
  size_t batch_window = 32;
  int batch_threads = 1;
  bool shared_finalize = true;

  /// Decode->apply ring between connection readers and the apply thread.
  size_t ring_capacity = 8;
  ingest::OverloadPolicy ingest_overload = ingest::OverloadPolicy::kBlock;

  /// Subscriber-side overload machinery.
  SlowClientPolicy slow_client = SlowClientPolicy::kBlock;
  size_t outbound_capacity = 256;   ///< Frames per client outbound queue.
  size_t notify_log_capacity = 1 << 16;  ///< Replayable notifications kept.

  /// SO_SNDBUF for accepted connections (0 = system default). Kernel-side
  /// buffering sits *in front of* the outbound queue: with the default
  /// ~hundreds of KB a slow client can lag that far behind before the
  /// block/shed/disconnect policy ever sees pressure. Bounding it makes the
  /// application-level policy the real backstop (and makes the policy tests
  /// deterministic).
  int sndbuf_bytes = 0;

  /// Liveness: the writer thread emits a Progress frame (doubling as the
  /// server heartbeat) after this much outbound silence, and a connection
  /// that sends nothing — not even a heartbeat — for idle_timeout_millis is
  /// disconnected.
  int heartbeat_millis = 1000;
  int idle_timeout_millis = 10000;

  /// A partial window flushes this long after its first record arrives, so
  /// a trickling stream still notifies promptly.
  int window_flush_millis = 20;

  /// Durability (both empty = in-memory only). `journal_path` is the
  /// append-only streaming `.gsb` WAL; `state_path` holds the atomic
  /// snapshot + subscription + producer-offset image written every
  /// `snapshot_every_windows` finalized windows. Start() recovers from an
  /// existing journal automatically.
  std::string journal_path;
  std::string state_path;
  uint64_t snapshot_every_windows = 0;

  /// Sliding-window expiry (src/time): the apply thread splices each
  /// record's due internal deletions ahead of it in the same engine window.
  /// The journal stores original records only — expiry is event-time
  /// deterministic, so recovery replay re-derives it — and HelloAck
  /// advertises (policy, width) to connecting clients.
  temporal::WindowConfig window;
};

/// Monotonic counters, greppable from the CLI at exit and asserted by the
/// resilience tests. Reconciliation invariant (by construction):
///   notifications_produced == delivered + shed + still-queued.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t records_accepted = 0;     ///< Deduplicated records entering the ring.
  uint64_t records_applied = 0;
  uint64_t windows_finalized = 0;
  uint64_t notifications_produced = 0;   ///< Notify frames enqueued (per client).
  uint64_t notifications_delivered = 0;  ///< Notify frames written to a socket.
  uint64_t notifications_shed = 0;       ///< Dropped by policy / at close.
  uint64_t duplicate_records_skipped = 0;  ///< At-least-once resend overlap.
  uint64_t protocol_errors = 0;
  uint64_t idle_disconnects = 0;
  uint64_t slow_disconnects = 0;
  uint64_t snapshots_written = 0;
  uint64_t expired_edges = 0;    ///< Internal window-expiry deletions applied.
  uint64_t expiry_batches = 0;   ///< Advances that emitted >= 1 deletion.
  uint64_t live_edges = 0;       ///< Current live-edge horizon.
};

/// The resilient streaming front-end (DESIGN.md §11): one engine behind a
/// TCP accept loop. Connection readers decode frames and feed the bounded
/// ring; the single apply thread owns the engine, applies windows
/// (journaling each window before applying it — WAL ordering), fans match
/// notifications out to subscribers through bounded per-client queues, and
/// writes crash-state snapshots at the configured cadence.
class Server {
 public:
  // Out-of-line: members hold containers of nested types defined in the .cc.
  explicit Server(ServerOptions opts);
  ~Server();

  /// Validates options, recovers from an existing journal when configured,
  /// binds the socket, and starts the threads. False with `*error` set.
  bool Start(std::string* error);

  int port() const { return port_; }

  /// Graceful shutdown (SIGTERM): stop accepting, let connection readers
  /// drain, flush the final partial window, write a boundary snapshot, send
  /// every client a Drain frame, then close. Idempotent.
  void Drain();

  /// Crash simulation (kill -9): abort the ring, hard-close every socket,
  /// and join the threads with NO flush and NO final snapshot — exactly the
  /// state a killed process leaves on disk. Idempotent.
  void Kill();

  ServerStats stats() const;

  /// Applied-record count (the notification index space); exposed for tests.
  uint64_t applied_records() const {
    return applied_records_.load(std::memory_order_relaxed);
  }

 private:
  struct Producer;
  struct Conn;
  struct ControlOp;
  struct NotifyLogEntry;
  struct SubSlot;
  struct Span;

  bool Recover(std::string* error);
  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Conn> c);
  void WriterLoop(std::shared_ptr<Conn> c);
  bool HandleFrame(const std::shared_ptr<Conn>& c, Frame& f);
  void ApplyLoop();
  void ApplyWindow(std::vector<EdgeUpdate>& window, std::deque<Span>& spans,
                   size_t n);
  void WriteSnapshotState();
  void ProcessControlOps();
  void PostOp(ControlOp&& op);
  bool EnqueueOutbound(Conn& c, std::vector<uint8_t> bytes, bool sheddable);
  bool ProtocolError(Conn& c, const std::string& message);
  void SendErrorAndFlushClose(Conn& c, ErrorCode code,
                              const std::string& message);
  void HardClose(Conn& c);
  void FanOut(uint64_t index, const UpdateResult& result);
  void SendNotifyTo(Conn& c, const NotifyLogEntry& entry);

  /// Declared first, so destroyed last: once every other member has freed
  /// its heap, hands the free pages of every malloc arena back to the OS
  /// (glibc). The engine and buffers were built on this server's apply and
  /// connection threads, whose arenas keep freed memory resident and are
  /// rarely reused by later threads — a process running servers one after
  /// another would otherwise grow with each lifetime.
  struct HeapTrim {
    ~HeapTrim();
  };
  HeapTrim heap_trim_;

  ServerOptions opts_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::unique_ptr<ContinuousEngine> engine_;
  ResultAccumulator acc_;
  std::unique_ptr<ingest::BoundedBatchRing> ring_;
  std::unique_ptr<Journal> journal_;

  /// Apply-thread-only (recovery replay runs on the Start() thread before
  /// the apply thread exists). Counters are mirrored into atomics for
  /// stats() readers.
  std::unique_ptr<temporal::WindowManager> window_mgr_;
  std::vector<EdgeUpdate> exec_buf_;  ///< Expiry splice scratch.
  std::atomic<uint64_t> expired_edges_{0};
  std::atomic<uint64_t> expiry_batches_{0};
  std::atomic<uint64_t> live_edges_{0};

  // Shared dictionary: every client id remaps into this interner; guarded by
  // interner_mu_ (readers intern dict frames, the apply thread parses
  // patterns and extracts journal dict deltas).
  std::mutex interner_mu_;
  StringInterner interner_;

  // Record-batch sequencing: reader threads take a dense seq + register the
  // batch's producer span under seq_mu_, then push OUTSIDE the lock (the
  // apply thread reassembles order from seq, so push order is free).
  std::mutex seq_mu_;
  uint64_t next_push_seq_ = 0;
  struct BatchMeta {
    std::string producer;
    uint64_t base = 0;  ///< Producer-stream offset of the batch's first record.
    size_t count = 0;
  };
  std::unordered_map<uint64_t, BatchMeta> batch_meta_;

  // Producer registry (client name -> durable stream position).
  std::mutex producers_mu_;
  std::unordered_map<std::string, std::shared_ptr<Producer>> producers_;

  // Control ops from connection readers to the apply thread.
  std::mutex ops_mu_;
  std::deque<ControlOp> ops_;

  // Apply-thread-only state (no locks): subscription registry, notification
  // log, attached subscriber connections.
  std::vector<SubSlot> subs_;
  std::unordered_map<QueryId, size_t> qid_to_slot_;
  QueryId next_qid_ = 0;
  std::deque<NotifyLogEntry> notify_log_;
  uint64_t notify_log_start_ = 0;
  std::vector<std::shared_ptr<Conn>> attached_;
  uint32_t journal_dict_synced_ = 0;  ///< Interner prefix already journaled.
  std::unordered_set<QueryId> recovered_satisfied_;

  std::atomic<uint64_t> applied_records_{0};
  std::atomic<uint64_t> windows_finalized_{0};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 0;
  bool draining_ = false;
  bool killed_ = false;
  bool started_ = false;
  bool stopped_ = false;
  bool drain_snapshot_written_ = false;

  std::thread accept_thread_;
  std::thread apply_thread_;

  struct Counters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> records_accepted{0};
    std::atomic<uint64_t> notifications_produced{0};
    std::atomic<uint64_t> notifications_delivered{0};
    std::atomic<uint64_t> notifications_shed{0};
    std::atomic<uint64_t> duplicate_records_skipped{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> idle_disconnects{0};
    std::atomic<uint64_t> slow_disconnects{0};
    std::atomic<uint64_t> snapshots_written{0};
  };
  mutable Counters counters_;
};

/// Parses a SlowClientPolicy name ("block", "shed", "disconnect"); returns
/// false on an unknown name.
bool ParseSlowClientPolicy(const std::string& name, SlowClientPolicy* out);

}  // namespace server
}  // namespace gstream

#endif  // GSTREAM_SERVER_SERVER_H_
