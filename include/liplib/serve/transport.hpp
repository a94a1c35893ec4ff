// liplib/serve/transport.hpp
//
// The loopback transport of the liplib.rpc/1 framing (protocol.hpp),
// shared by the serve daemon and the dist coordinator: one listener and
// one client call.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "liplib/serve/protocol.hpp"
#include "liplib/support/check.hpp"

namespace liplib::serve {

/// Binds 127.0.0.1:<port> and runs the handler for each accepted
/// connection on that connection's own thread, at most
/// `max_connections` at once (further connects wait in the kernel
/// backlog).  A thread that ends is joined by the next one to end, or
/// by wait(), so finished threads never pile up.  When a thread cannot
/// start (std::system_error at the process thread limit) the peer gets
/// the reject payload as one frame and the listener keeps accepting.
class Listener {
 public:
  /// Serves one connection, then the listener closes `fd`.  Returning
  /// false stops the listener.  Must not throw.
  using Handler = std::function<bool(int fd)>;
  /// The error payload for a peer whose thread could not start.
  using Reject = std::function<std::string(const std::string& message)>;

  /// Binds (port 0 = ephemeral) and starts accepting.  Throws ApiError
  /// when the port cannot be bound.
  Listener(std::uint16_t port, unsigned max_connections, Handler handler,
           Reject reject);
  ~Listener();  ///< stop() + wait()

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Stops accepting and shuts the read side of every open connection:
  /// idle readers see EOF, in-flight answers still go out.  Idempotent
  /// and non-blocking, so handlers may call it.
  void stop();

  /// Blocks until stop() and until every thread is joined.  Never call
  /// it from a handler.
  void wait();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void accept_loop();
  void serve(std::list<Connection>::iterator self);

  Handler handler_;
  Reject reject_;
  unsigned max_connections_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::mutex mu_;  ///< guards open_, exited_ and stopping_
  std::condition_variable cv_;
  std::list<Connection> open_;
  std::thread exited_;  ///< the last thread to end, not yet joined
  bool stopping_ = false;

  std::thread accept_thread_;
};

/// Thrown by call() when nothing accepts the connection.
struct ConnectError : ApiError {
  using ApiError::ApiError;
};

/// One round trip on a fresh connection to 127.0.0.1:<port>: writes
/// `request` as one frame and reads one frame back; nullopt when the
/// peer closes without answering.  Throws ConnectError, or ApiError on
/// a framing or I/O failure.
std::optional<std::string> call(std::uint16_t port, std::string_view request);

}  // namespace liplib::serve
