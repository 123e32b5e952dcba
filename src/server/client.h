#ifndef GSTREAM_SERVER_CLIENT_H_
#define GSTREAM_SERVER_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/update.h"
#include "ingest/fault_injector.h"
#include "server/protocol.h"

namespace gstream {
namespace server {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Stable identity: the server keys the producer stream position and the
  /// subscription registry on it, which is what makes reconnect-resume exact.
  std::string name = "client";

  int connect_timeout_millis = 2000;
  /// Reads poll at heartbeat granularity; the reader sends a heartbeat
  /// whenever nothing was written for heartbeat_millis (whatever it read),
  /// and idle_timeout_millis of total silence from the server counts as a
  /// dead connection.
  int heartbeat_millis = 500;
  int idle_timeout_millis = 10000;
  /// How long a synchronous call (Subscribe, WaitApplied) waits.
  int call_timeout_millis = 30000;

  /// Exponential-backoff reconnect.
  int reconnect_initial_millis = 20;
  int reconnect_max_millis = 1000;
  double reconnect_factor = 2.0;
  int max_reconnects = 10;

  size_t edges_per_frame = 256;

  /// Outgoing-direction wire faults (torn/duplicated/reordered/delayed
  /// frames, mid-handshake resets) for the resilience tests.
  ingest::WireFaultConfig faults;
  uint64_t fault_seed = 1;
};

/// Counters the CLI greps and the tests assert.
struct ClientStats {
  uint64_t connects = 0;    ///< Successful handshakes (1 = never reconnected).
  uint64_t reconnects = 0;  ///< Handshakes after the first.
  uint64_t notifies = 0;
  uint64_t records_sent = 0;  ///< Including at-least-once resend overlap.
  uint64_t server_errors = 0;
  uint64_t faults_torn = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_reordered = 0;
  uint64_t handshake_resets = 0;
};

/// Reconnecting protocol client. A background reader thread dispatches
/// server frames to the callbacks and answers liveness; the caller's thread
/// drives Connect/Subscribe/StreamEdges/WaitApplied, transparently
/// reconnecting with exponential backoff and resuming exactly:
///  * edges resume from the server's acked producer offset (at-least-once
///    resend; the server deduplicates the overlap);
///  * notifications resume from the next index this client has not seen
///    (Hello.resume_notify; the server replays its notification log);
///  * the dictionary is resent from id 0 (interning is idempotent) and every
///    subscription is re-registered (the server reattaches by sub_id).
class Client {
 public:
  using NotifyFn = std::function<void(const NotifyMsg&)>;
  using DrainFn = std::function<void(const DrainMsg&)>;

  explicit Client(ClientOptions opts) : opts_(std::move(opts)) {}
  ~Client();

  /// Optional callbacks; set before Connect.
  void OnNotify(NotifyFn fn) { on_notify_ = std::move(fn); }
  void OnDrain(DrainFn fn) { on_drain_ = std::move(fn); }

  /// Handshakes (connecting if needed). False with `*error` set after
  /// max_reconnects failed attempts.
  bool Connect(std::string* error);

  /// Re-targets the next (re)connect — a restarted server binds a new
  /// ephemeral port.
  void set_port(int port);

  /// Registers `strings` as client dictionary ids `0..n)`; call before
  /// streaming edges that use those ids. Appending more later is fine;
  /// replacing is not.
  void SetDictionary(std::vector<std::string> strings);

  /// Synchronous subscribe: sends and waits for the matching SubAck. False
  /// with `*error` set on timeout/connection failure; a server-side reject
  /// (bad pattern) returns true with ack->status == SubStatus::kError.
  bool Subscribe(uint32_t sub_id, const std::string& pattern, SubAckMsg* ack,
                 std::string* error);

  bool Unsubscribe(uint32_t sub_id, std::string* error);

  /// Appends `updates` (client dictionary id space) to the producer stream
  /// and sends everything not yet sent, reconnecting/resending as needed.
  bool StreamEdges(const std::vector<EdgeUpdate>& updates, std::string* error);

  /// Blocks until the server acks `target_records` of this producer's
  /// stream as applied. False with `*error` set on timeout.
  bool WaitApplied(uint64_t target_records, std::string* error);

  /// Clean close: Bye, stop the reader, close the socket. Idempotent.
  void Close();

  ClientStats stats() const;
  HelloAckMsg last_hello_ack() const;
  /// True once the server announced a graceful drain.
  bool drained() const;

 private:
  bool HandshakeOnce(std::string* error);
  bool SendFrame(const std::vector<uint8_t>& frame, bool with_faults);
  bool SendPending(std::string* error);
  /// Releases a frame the fault injector held back for reordering when a
  /// send pass ends (reordering delays frames, it never drops them).
  bool FlushHeldFaults();
  void ReaderLoop(int fd, uint64_t epoch);
  /// SendAll for callers holding write_mu_; stamps last_write_ns_.
  bool WriteLocked(int fd, const uint8_t* data, size_t size);
  void DropConnection(uint64_t epoch);

  ClientOptions opts_;
  NotifyFn on_notify_;
  DrainFn on_drain_;

  // Caller-thread state (no lock needed): the producer stream + send cursors.
  std::vector<std::string> dict_;
  std::vector<EdgeUpdate> stream_;
  uint64_t next_unsent_ = 0;
  uint64_t next_dict_unsent_ = 0;
  std::unique_ptr<ingest::WireFaultInjector> injector_;

  std::mutex write_mu_;  ///< Serializes socket writes (caller + heartbeats).
  /// Steady-clock time of the latest write (ticks since the clock's epoch):
  /// the reader sends a heartbeat once it is heartbeat_millis old.
  std::atomic<int64_t> last_write_ns_{0};

  mutable std::mutex mu_;  ///< Connection + progress state, cv-signalled.
  std::condition_variable cv_;
  int fd_ = -1;
  bool connected_ = false;
  uint64_t epoch_ = 0;  ///< Bumped per connection; stale readers exit.
  std::thread reader_;
  bool closed_ = false;
  HelloAckMsg hello_ack_;
  uint64_t acked_ = 0;          ///< Producer records the server applied.
  uint64_t applied_ = 0;        ///< Server's global applied count.
  uint64_t next_notify_ = 0;    ///< Next notification index not yet seen.
  bool drained_ = false;
  std::map<uint32_t, std::string> subs_;        ///< sub_id -> pattern.
  std::map<uint32_t, SubAckMsg> sub_acks_;      ///< Latest ack per sub_id.
  ClientStats stats_;
};

}  // namespace server
}  // namespace gstream

#endif  // GSTREAM_SERVER_CLIENT_H_
