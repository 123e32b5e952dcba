#include "server/client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "server/net.h"

namespace gstream {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point Deadline(int millis) {
  return Clock::now() + std::chrono::milliseconds(millis);
}

constexpr size_t kDictStringsPerFrame = 4096;

}  // namespace

Client::~Client() { Close(); }

void Client::set_port(int port) {
  std::lock_guard<std::mutex> lock(mu_);
  opts_.port = port;
}

void Client::SetDictionary(std::vector<std::string> strings) {
  if (strings.size() >= dict_.size()) dict_ = std::move(strings);
}

bool Client::Connect(std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      if (error != nullptr) *error = "client is closed";
      return false;
    }
    if (connected_) return true;
    if (injector_ == nullptr && opts_.faults.any()) {
      injector_ = std::make_unique<ingest::WireFaultInjector>(opts_.fault_seed,
                                                              opts_.faults);
    }
  }

  std::string err = "no connection attempt made";
  int backoff = opts_.reconnect_initial_millis;
  for (int attempt = 0; attempt <= opts_.max_reconnects; ++attempt) {
    if (attempt > 0) {
      ::usleep(static_cast<useconds_t>(backoff) * 1000);
      backoff = std::min(
          static_cast<int>(backoff * opts_.reconnect_factor + 0.5),
          opts_.reconnect_max_millis);
    }
    // Fully tear down the previous connection (stale reader included)
    // before dialing again.
    std::thread old_reader;
    int old_fd = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        if (error != nullptr) *error = "client is closed";
        return false;
      }
      old_fd = fd_;
      fd_ = -1;
      connected_ = false;
      old_reader = std::move(reader_);
    }
    if (old_fd >= 0) ShutdownFd(old_fd);
    if (old_reader.joinable()) old_reader.join();
    if (old_fd >= 0) CloseFd(old_fd);

    if (HandshakeOnce(&err)) return true;
  }
  if (error != nullptr) {
    *error = "connect failed after " + std::to_string(opts_.max_reconnects + 1) +
             " attempts: " + err;
  }
  return false;
}

bool Client::HandshakeOnce(std::string* error) {
  std::string host;
  int port = 0;
  uint64_t resume_notify = kNoOffset;
  bool first_connect = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    host = opts_.host;
    port = opts_.port;
    first_connect = stats_.connects == 0;
    if (!first_connect) resume_notify = next_notify_;
  }

  std::string err;
  const int fd = ConnectTcp(host, port, opts_.connect_timeout_millis, &err);
  if (fd < 0) {
    *error = err;
    return false;
  }

  HelloMsg hello;
  hello.name = opts_.name;
  hello.resume_notify = resume_notify;
  const std::vector<uint8_t> hello_frame = EncodeHello(hello);

  if (injector_ != nullptr && injector_->TakeHandshakeReset()) {
    // Write a strict prefix of the Hello, then reset — the server must
    // survive a connection that dies mid-handshake.
    SendAll(fd, hello_frame.data(), hello_frame.size() / 2);
    ShutdownFd(fd);
    CloseFd(fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.handshake_resets = injector_->handshake_resets_fired();
    }
    *error = "injected handshake reset";
    return false;
  }

  if (!SendAll(fd, hello_frame.data(), hello_frame.size())) {
    CloseFd(fd);
    *error = "handshake write failed";
    return false;
  }

  Frame f;
  const ReadStatus st = ReadFrame(fd, opts_.idle_timeout_millis, f, &err);
  if (st != ReadStatus::kOk) {
    CloseFd(fd);
    *error = "handshake read failed: " + err;
    return false;
  }
  if (f.type == FrameType::kError) {
    ErrorMsg em;
    DecodeError(f.payload, em);
    CloseFd(fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.server_errors;
    }
    *error = "server rejected handshake: " + em.message;
    return false;
  }
  HelloAckMsg ack;
  if (f.type != FrameType::kHelloAck || !DecodeHelloAck(f.payload, ack)) {
    CloseFd(fd);
    *error = "handshake: expected HelloAck";
    return false;
  }

  // Re-register every subscription (fire-and-forget; acks arrive through
  // the reader) and rewind the send cursors: the full dictionary is resent
  // (interning is idempotent) and edges resume from the server's acked
  // offset (at-least-once; the server deduplicates the overlap).
  std::map<uint32_t, std::string> subs_copy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    subs_copy = subs_;
  }
  {
    std::lock_guard<std::mutex> wlock(write_mu_);
    for (const auto& [sub_id, pattern] : subs_copy) {
      SubscribeMsg sm;
      sm.sub_id = sub_id;
      sm.pattern = pattern;
      const std::vector<uint8_t> frame = EncodeSubscribe(sm);
      if (!WriteLocked(fd, frame.data(), frame.size())) {
        CloseFd(fd);
        *error = "handshake: resubscribe write failed";
        return false;
      }
    }
  }
  next_dict_unsent_ = 0;
  if (ack.producer_acked != kNoOffset) {
    next_unsent_ = std::min(next_unsent_, ack.producer_acked);
  }
  // A frame held back for reordering belongs to the connection that died: it
  // never hit the wire, and the rewound cursor resends its records. Releasing
  // it here would splice stale bytes into the new stream — ahead of the dict,
  // or with a base the rewind already stepped behind.
  if (injector_ != nullptr) injector_->DiscardHeld();

  {
    std::lock_guard<std::mutex> lock(mu_);
    fd_ = fd;
    connected_ = true;
    ++epoch_;
    hello_ack_ = ack;
    applied_ = std::max(applied_, ack.applied_records);
    if (ack.producer_acked != kNoOffset)
      acked_ = std::max(acked_, ack.producer_acked);
    ++stats_.connects;
    if (stats_.connects > 1) ++stats_.reconnects;
    // The handshake just wrote the Hello (and any resubscribes).
    last_write_ns_.store(Clock::now().time_since_epoch().count());
    reader_ = std::thread(&Client::ReaderLoop, this, fd, epoch_);
    cv_.notify_all();
  }
  return true;
}

bool Client::FlushHeldFaults() {
  if (injector_ == nullptr) return true;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!connected_) return false;
    fd = fd_;
  }
  std::lock_guard<std::mutex> wlock(write_mu_);
  const ingest::WireFaultInjector::Action action = injector_->Flush();
  for (const std::vector<uint8_t>& chunk : action.chunks) {
    if (!WriteLocked(fd, chunk.data(), chunk.size())) {
      std::lock_guard<std::mutex> lock(mu_);
      connected_ = false;
      return false;
    }
  }
  return true;
}

bool Client::SendFrame(const std::vector<uint8_t>& frame, bool with_faults) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!connected_) return false;
    fd = fd_;
  }
  std::lock_guard<std::mutex> wlock(write_mu_);
  if (with_faults && injector_ != nullptr) {
    ingest::WireFaultInjector::Action action = injector_->OnFrame(frame);
    if (action.delay_micros > 0)
      ::usleep(static_cast<useconds_t>(action.delay_micros));
    bool ok = true;
    for (const std::vector<uint8_t>& chunk : action.chunks) {
      if (!WriteLocked(fd, chunk.data(), chunk.size())) {
        ok = false;
        break;
      }
    }
    if (action.drop_connection) {
      ShutdownFd(fd);
      ok = false;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.faults_torn = injector_->frames_torn();
      stats_.faults_duplicated = injector_->frames_duplicated();
      stats_.faults_reordered = injector_->frames_reordered();
      if (!ok) connected_ = false;
    }
    return ok;
  }
  if (!WriteLocked(fd, frame.data(), frame.size())) {
    std::lock_guard<std::mutex> lock(mu_);
    connected_ = false;
    return false;
  }
  return true;
}

bool Client::WriteLocked(int fd, const uint8_t* data, size_t size) {
  last_write_ns_.store(Clock::now().time_since_epoch().count());
  return SendAll(fd, data, size);
}

bool Client::SendPending(std::string* error) {
  for (;;) {
    // Dictionary delta first: edges reference these ids.
    if (next_dict_unsent_ < dict_.size()) {
      if (!Connect(error)) return false;
      const size_t n =
          std::min(kDictStringsPerFrame, dict_.size() - next_dict_unsent_);
      DictMsg dm;
      dm.first_id = static_cast<uint32_t>(next_dict_unsent_);
      dm.strings.assign(dict_.begin() + static_cast<long>(next_dict_unsent_),
                        dict_.begin() + static_cast<long>(next_dict_unsent_ + n));
      if (!SendFrame(EncodeDict(dm), /*with_faults=*/false)) continue;
      next_dict_unsent_ += n;
      continue;
    }
    if (next_unsent_ >= stream_.size()) {
      // A pass can end with the injector still holding a frame for
      // reordering; release it or the stream tail is lost, not delayed —
      // no real transport loses a frame it merely reordered. Connect first:
      // a flush failure means the connection died, and without a reconnect
      // here this loop would spin on the dead connection forever.
      if (!Connect(error)) return false;
      // Connect may have re-handshaked, rewinding the send cursors to the
      // server's acked offset — returning now would strand the rewound tail
      // as "sent" and idle forever; go around and resend it instead.
      if (next_dict_unsent_ < dict_.size() || next_unsent_ < stream_.size())
        continue;
      if (!FlushHeldFaults()) continue;
      return true;
    }
    if (!Connect(error)) return false;
    const size_t n =
        std::min(opts_.edges_per_frame, stream_.size() - next_unsent_);
    EdgesMsg em;
    em.base = next_unsent_;
    em.records.assign(stream_.begin() + static_cast<long>(next_unsent_),
                      stream_.begin() + static_cast<long>(next_unsent_ + n));
    if (!SendFrame(EncodeEdges(em), /*with_faults=*/true)) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.records_sent += n;
    }
    next_unsent_ += n;
  }
}

bool Client::Subscribe(uint32_t sub_id, const std::string& pattern,
                       SubAckMsg* ack, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    subs_[sub_id] = pattern;
    sub_acks_.erase(sub_id);
  }
  if (!Connect(error)) return false;
  SubscribeMsg sm;
  sm.sub_id = sub_id;
  sm.pattern = pattern;
  SendFrame(EncodeSubscribe(sm), /*with_faults=*/false);

  const auto deadline = Deadline(opts_.call_timeout_millis);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto it = sub_acks_.find(sub_id);
    if (it != sub_acks_.end()) {
      if (it->second.status == static_cast<uint8_t>(SubStatus::kError)) {
        // The server keeps the connection open; drop the local registration
        // so reconnects do not re-send a pattern the server rejects.
        subs_.erase(sub_id);
      }
      if (ack != nullptr) *ack = it->second;
      return true;
    }
    if (Clock::now() >= deadline) {
      if (error != nullptr) *error = "subscribe timed out";
      return false;
    }
    if (!connected_) {
      lock.unlock();
      if (!Connect(error)) return false;  // reconnect re-sends the subscribe
      lock.lock();
    } else {
      cv_.wait_until(lock, deadline);
    }
  }
}

bool Client::Unsubscribe(uint32_t sub_id, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    subs_.erase(sub_id);
    sub_acks_.erase(sub_id);
  }
  if (!Connect(error)) return false;
  UnsubscribeMsg um;
  um.sub_id = sub_id;
  SendFrame(EncodeUnsubscribe(um), /*with_faults=*/false);
  return true;
}

bool Client::StreamEdges(const std::vector<EdgeUpdate>& updates,
                         std::string* error) {
  stream_.insert(stream_.end(), updates.begin(), updates.end());
  return SendPending(error);
}

bool Client::WaitApplied(uint64_t target_records, std::string* error) {
  const auto deadline = Deadline(opts_.call_timeout_millis);
  for (;;) {
    bool need_reconnect = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (acked_ >= target_records) return true;
      if (Clock::now() >= deadline) {
        if (error != nullptr) {
          *error = "timed out waiting for ack of " +
                   std::to_string(target_records) + " records (acked " +
                   std::to_string(acked_) + ")";
        }
        return false;
      }
      if (connected_) {
        cv_.wait_until(lock, std::min(deadline, Deadline(50)));
        continue;
      }
      need_reconnect = true;
    }
    if (need_reconnect) {
      // The connection died with records possibly unacked: reconnect (which
      // rewinds the send cursor to the server's acked offset) and resend.
      if (!Connect(error)) return false;
      if (!SendPending(error)) return false;
    }
  }
}

void Client::ReaderLoop(int fd, uint64_t epoch) {
  int idle_millis = 0;
  const Clock::duration beat = std::chrono::milliseconds(opts_.heartbeat_millis);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || epoch_ != epoch) return;
    }
    Frame f;
    std::string err;
    const ReadStatus st = ReadFrame(fd, opts_.heartbeat_millis, f, &err);
    if (st == ReadStatus::kTimeout) {
      idle_millis += opts_.heartbeat_millis;
      if (idle_millis >= opts_.idle_timeout_millis) {
        DropConnection(epoch);
        return;
      }
    } else if (st != ReadStatus::kOk) {
      DropConnection(epoch);
      return;
    } else {
      idle_millis = 0;
    }
    // The server reaps a connection that sends nothing for its idle timeout,
    // so liveness is owed whatever was read: a subscriber receiving frames
    // faster than heartbeat_millis never sees a read time out, yet may have
    // nothing else to send. A writer holding write_mu_ is already sending;
    // the reader never waits for it, so it keeps draining server frames.
    const Clock::time_point last_write(Clock::duration(last_write_ns_.load()));
    if (Clock::now() - last_write >= beat) {
      std::unique_lock<std::mutex> wlock(write_mu_, std::try_to_lock);
      if (wlock.owns_lock()) {
        const std::vector<uint8_t> hb = EncodeHeartbeat();
        if (!WriteLocked(fd, hb.data(), hb.size())) {
          DropConnection(epoch);
          return;
        }
      }
    }
    if (st == ReadStatus::kTimeout) continue;
    switch (f.type) {
      case FrameType::kNotify: {
        NotifyMsg m;
        if (!DecodeNotify(f.payload, m)) break;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.notifies;
          next_notify_ = std::max(next_notify_, m.record_index + 1);
        }
        if (on_notify_) on_notify_(m);
        break;
      }
      case FrameType::kProgress: {
        ProgressMsg m;
        if (!DecodeProgress(f.payload, m)) break;
        std::lock_guard<std::mutex> lock(mu_);
        applied_ = std::max(applied_, m.applied_records);
        if (m.producer_acked != kNoOffset)
          acked_ = std::max(acked_, m.producer_acked);
        cv_.notify_all();
        break;
      }
      case FrameType::kSubAck: {
        SubAckMsg m;
        if (!DecodeSubAck(f.payload, m)) break;
        std::lock_guard<std::mutex> lock(mu_);
        sub_acks_[m.sub_id] = m;
        cv_.notify_all();
        break;
      }
      case FrameType::kDrain: {
        DrainMsg m;
        if (!DecodeDrain(f.payload, m)) break;
        {
          std::lock_guard<std::mutex> lock(mu_);
          drained_ = true;
          applied_ = std::max(applied_, m.applied_records);
          cv_.notify_all();
        }
        if (on_drain_) on_drain_(m);
        break;
      }
      case FrameType::kError: {
        ErrorMsg m;
        DecodeError(f.payload, m);
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.server_errors;
        }
        // The server closes after an Error frame; fall through to the close
        // path on the next read (or drop now — either works).
        DropConnection(epoch);
        return;
      }
      case FrameType::kHeartbeat:
      default:
        break;
    }
  }
}

void Client::DropConnection(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch_ == epoch) connected_ = false;
  cv_.notify_all();
}

void Client::Close() {
  std::thread reader;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
    fd = fd_;
    fd_ = -1;
    connected_ = false;
    reader = std::move(reader_);
    cv_.notify_all();
  }
  if (fd >= 0) {
    const std::vector<uint8_t> bye = EncodeBye();
    std::lock_guard<std::mutex> wlock(write_mu_);
    SendAll(fd, bye.data(), bye.size());
    ShutdownFd(fd);
  }
  if (reader.joinable()) reader.join();
  if (fd >= 0) CloseFd(fd);
}

ClientStats Client::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

HelloAckMsg Client::last_hello_ack() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hello_ack_;
}

bool Client::drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drained_;
}

}  // namespace server
}  // namespace gstream
