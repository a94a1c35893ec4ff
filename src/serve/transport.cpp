#include "liplib/serve/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace liplib::serve {

namespace {

/// Closes an fd on scope exit unless released (fd = -1).
struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

/// A TCP socket plus the 127.0.0.1:<port> address.  Loopback only:
/// both daemons are local backends, not internet listeners.
int loopback_socket(std::uint16_t port, sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr->sin_port = htons(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ApiError(std::string("socket failed: ") + std::strerror(errno));
  }
  return fd;
}

}  // namespace

Listener::Listener(std::uint16_t port, unsigned max_connections,
                   Handler handler, Reject reject)
    : handler_(std::move(handler)),
      reject_(std::move(reject)),
      max_connections_(max_connections) {
  sockaddr_in addr;
  FdGuard sock{loopback_socket(port, &addr)};
  const int one = 1;
  ::setsockopt(sock.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw ApiError("cannot bind 127.0.0.1:" + std::to_string(port) + ": " +
                   std::strerror(errno));
  }
  if (::listen(sock.fd, 128) < 0) {
    throw ApiError(std::string("listen failed: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(sock.fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_ = std::exchange(sock.fd, -1);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Listener::~Listener() {
  stop();
  wait();
  ::close(listen_fd_);
}

void Listener::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listening socket shut down (stop) or fatal error
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return open_.size() < max_connections_ || stopping_;
    });
    if (stopping_) {
      ::close(fd);
      break;
    }
    const auto conn = open_.insert(open_.end(), Connection{fd, {}});
    try {
      // Assigned under mu_, which the new thread takes before it moves
      // its own handle out.
      conn->thread = std::thread([this, conn] { serve(conn); });
    } catch (const std::system_error& e) {
      open_.erase(conn);
      lock.unlock();
      const FdGuard rejected{fd};
      try {
        write_frame(fd, reject_(std::string("cannot start a connection "
                                            "thread: ") + e.what()));
      } catch (const std::exception&) {
      }
    }
  }
}

void Listener::serve(std::list<Connection>::iterator self) {
  const int fd = self->fd;
  const bool keep_listening = handler_(fd);
  std::thread previous;
  {
    // Unregister before close, so stop() never shuts a recycled fd
    // number, and leave this thread for the next one to join.
    std::lock_guard<std::mutex> lock(mu_);
    previous = std::exchange(exited_, std::move(self->thread));
    open_.erase(self);
    cv_.notify_all();
  }
  ::close(fd);
  if (!keep_listening) stop();
  if (previous.joinable()) previous.join();
}

void Listener::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return;
  stopping_ = true;
  // shutdown() (not just close) reliably wakes a blocked accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  for (const Connection& c : open_) ::shutdown(c.fd, SHUT_RD);
  cv_.notify_all();
}

void Listener::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_.empty(); });
    last = std::move(exited_);
  }
  // Every thread joined its predecessor before ending, so joining the
  // last one joins them all.
  if (last.joinable()) last.join();
}

std::optional<std::string> call(std::uint16_t port,
                                std::string_view request) {
  sockaddr_in addr;
  const FdGuard sock{loopback_socket(port, &addr)};
  if (::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw ConnectError("cannot connect to 127.0.0.1:" +
                       std::to_string(port) + ": " + std::strerror(errno));
  }
  write_frame(sock.fd, request);
  std::string payload;
  if (!read_frame(sock.fd, payload)) return std::nullopt;
  return payload;
}

}  // namespace liplib::serve
