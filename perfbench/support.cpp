// Statistics, result printing, child processes, CPU pinning, the
// loopback client and host readings shared by every workload.

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "liplib/serve/protocol.hpp"

namespace perfbench {

// ---- statistics ----------------------------------------------------------

double Samples::max() const {
  return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end());
}

double Samples::median() const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  const auto mid = s.begin() + static_cast<long>(s.size() / 2);
  std::nth_element(s.begin(), mid, s.end());
  if (s.size() % 2) return *mid;
  return (*std::max_element(s.begin(), mid) + *mid) / 2;
}

std::optional<double> Samples::percentile(double p) const {
  const std::size_t n = v_.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))),
      1, n);
  if (n - rank < 10) return std::nullopt;
  std::vector<double> s = v_;
  const auto at = s.begin() + static_cast<long>(rank - 1);
  std::nth_element(s.begin(), at, s.end());
  return *at;
}

std::string Samples::str() const {
  std::ostringstream os;
  os.precision(4);
  for (const double x : v_) os << ' ' << x;
  return os.str();
}

// ---- results -------------------------------------------------------------

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void RunResult::add(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics.push_back({name, value, unit, samples});
}

void RunResult::add_percentile(const std::string& name, const Samples& s,
                               double p) {
  const auto v = s.percentile(p);
  if (!v) {
    fail(name + ": only " + std::to_string(s.size()) +
         " samples, fewer than ten beyond the percentile");
    return;
  }
  report.push_back({name, *v, "ms", s.size()});
}

void RunResult::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  if (failures.size() < 8) failures.push_back(why);
}

const Metric* RunResult::find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void print_result(const RunResult& r) {
  auto row = [](const std::string& name) {
    std::cout << "  " << name;
    for (std::size_t i = name.size(); i < 34; ++i) std::cout << ' ';
  };
  std::cout << "\n";
  for (const auto* set : {&r.metrics, &r.report}) {
    for (const auto& m : *set) {
      row(m.name);
      std::cout << fmt_double(m.value) << " " << m.unit
                << "  (n=" << m.samples << ")\n";
    }
  }
  row("error_rate");
  std::cout << fmt_double(r.attempted ? static_cast<double>(r.failed) /
                                            static_cast<double>(r.attempted)
                                      : 1.0)
            << " fraction  (" << r.failed << " of " << r.attempted
            << " operations)\n";
  for (const auto& f : r.failures) std::cout << "  FAILURE: " << f << "\n";

  std::ostringstream os;
  os << "{\"correct\": "
     << (r.failed == 0 && r.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i) os << ", ";
    os << "\"" << m.name << "\": {\"value\": " << fmt_double(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---- CPUs ----------------------------------------------------------------

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

namespace {

const std::vector<int>& all_cpus() {
  static const std::vector<int> all = allowed_cpus();
  return all;
}

}  // namespace

void pin_thread(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus.empty() ? all_cpus() : cpus) CPU_SET(c, &set);
  // A thread that already exited just makes this fail with ESRCH.
  ::sched_setaffinity(tid, sizeof(set), &set);
}

void pin_process(pid_t pid, const std::vector<int>& cpus) {
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec)) {
    pin_thread(static_cast<pid_t>(std::atol(task.path().filename().c_str())),
               cpus);
  }
}

double host_speed() {
  constexpr std::size_t kSteps = 20'000'000;
  constexpr double kNominalSeconds = 0.1;
  static std::atomic<std::uint64_t> sink{0};
  std::vector<std::uint64_t> table(8192, 1);
  double total = 0;
  std::size_t runs = 0;
  for (int cpu : all_cpus()) {
    pin_thread(0, {cpu});
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& slot = table[x & 8191];
      slot += x;
      x += slot;
    }
    total += seconds_between(a, Clock::now());
    ++runs;
    sink.fetch_xor(x, std::memory_order_relaxed);
  }
  pin_thread(0, {});
  return runs ? kNominalSeconds * static_cast<double>(runs) / total : 1.0;
}

std::vector<int> rotation_cpu(int step, std::size_t offset) {
  const auto& all = all_cpus();
  if (step < 0 || all.empty()) return {};
  return {all[(static_cast<std::size_t>(step) + offset) % all.size()]};
}

CpuRotation::CpuRotation(std::function<void(int)> move,
                         std::chrono::milliseconds period)
    : move_(std::move(move)), period_(period) {
  move_(0);
  thread_ = std::thread([this] {
    const auto start = Clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    for (int step = 1;; ++step) {
      if (cv_.wait_until(lock, start + step * period_,
                         [this] { return stop_; })) {
        return;
      }
      move_(step);
    }
  });
}

CpuRotation::~CpuRotation() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  move_(-1);
}

double CpuRotation::cycle_seconds() const {
  return std::chrono::duration<double>(period_).count() *
         static_cast<double>(std::max<std::size_t>(1, all_cpus().size()));
}

// ---- processes -----------------------------------------------------------

namespace {

Clock::time_point deadline_in(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Milliseconds left until `deadline`, for poll().
int ms_left(Clock::time_point deadline) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                            Clock::now())
          .count());
}

/// Value of `field` ("Threads:", "VmHWM:") in a /proc status file.
long proc_status_field(const std::string& path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) return std::atol(line.c_str() + n);
  }
  return 0;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, int pin_cpu) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  // Everything the child needs is prepared here: after fork() it may
  // only make system calls.
  cpu_set_t one;
  CPU_ZERO(&one);
  if (pin_cpu >= 0) CPU_SET(pin_cpu, &one);
  const int devnull = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    if (pin_cpu >= 0) ::sched_setaffinity(0, sizeof(one), &one);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  if (devnull >= 0) ::close(devnull);
  if (pid_ < 0) {
    ::close(fds[0]);
    throw std::runtime_error("fork failed");
  }
  out_fd_ = fds[0];
}

Child::~Child() {
  if (!reaped_ && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

std::string Child::read_line(double timeout_s) {
  const auto deadline = deadline_in(timeout_s);
  for (;;) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    const int left = ms_left(deadline);
    if (left <= 0) throw std::runtime_error("child output timed out");
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, left) <= 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(out_fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) throw std::runtime_error("child closed its output");
    buf_.append(chunk, static_cast<std::size_t>(got));
  }
}

int Child::wait(double* peak_rss_mb, std::string* rest, double timeout_s) {
  const auto deadline = deadline_in(timeout_s);
  for (;;) {
    const int left = ms_left(deadline);
    if (left <= 0) throw std::runtime_error("child did not exit in time");
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, left) <= 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(out_fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    buf_.append(chunk, static_cast<std::size_t>(got));
  }
  int status = 0;
  rusage ru{};
  while (::wait4(pid_, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  reaped_ = true;
  if (peak_rss_mb) *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (rest) *rest = buf_;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

long Child::threads() const {
  return proc_status_field("/proc/" + std::to_string(pid_) + "/status",
                           "Threads:");
}

std::uint16_t read_port(Child& child) {
  const std::string line = child.read_line(30);
  const auto at = line.find("127.0.0.1:");
  if (at == std::string::npos) {
    throw std::runtime_error("unexpected start-up line: " + line);
  }
  return static_cast<std::uint16_t>(std::atoi(line.c_str() + at + 10));
}

// ---- client --------------------------------------------------------------

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("connect failed: ") +
                             std::strerror(err));
  }
  return fd;
}

}  // namespace

Conn::Conn(std::uint16_t port) : fd_(connect_loopback(port)) {}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Conn::call(const std::string& payload) {
  liplib::serve::write_frame(fd_, payload);
  std::string out;
  if (!liplib::serve::read_frame(fd_, out)) {
    throw std::runtime_error("peer closed the connection without answering");
  }
  return out;
}

std::string call_once(std::uint16_t port, const std::string& payload) {
  Conn c(port);
  return c.call(payload);
}

liplib::Json ok_result(const std::string& response) {
  liplib::Json doc = liplib::Json::parse(response);
  const liplib::Json* ok = doc.find("ok");
  if (!ok || !ok->is_bool() || !ok->as_bool()) {
    throw std::runtime_error("request refused: " + response.substr(0, 200));
  }
  const liplib::Json* result = doc.find("result");
  if (!result) throw std::runtime_error("response without result");
  return *result;
}

std::string result_bytes(const std::string& envelope) {
  const auto at = envelope.find(",\"result\":");
  if (at == std::string::npos) return {};
  return envelope.substr(at + 10, envelope.size() - at - 11);
}

// ---- host readings -------------------------------------------------------

long tcp_time_wait() {
  std::ifstream in("/proc/net/sockstat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("TCP:", 0) != 0) continue;
    const auto at = line.find(" tw ");
    if (at != std::string::npos) return std::atol(line.c_str() + at + 4);
  }
  return -1;
}

double self_vm_mb(const char* field) {
  return static_cast<double>(proc_status_field("/proc/self/status", field)) /
         1024.0;
}

double reset_peak_rss() {
  // Hand freed heap back to the kernel first, or a stage that reuses
  // memory an earlier stage freed would show no growth at all.
  ::malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return self_vm_mb("VmRSS:");
}

// ---- tracing -------------------------------------------------------------

std::uint64_t Tracer::new_id(std::uint64_t parent_span) const {
  if (!rec) return 0;
  return liplib::trace::derive_span_id(
      trace_id, parent_span ? parent_span : parent, rec->next_seq());
}

std::uint64_t Tracer::span(
    const std::string& name, Clock::time_point t0, Clock::time_point t1,
    std::uint64_t parent_span,
    std::vector<std::pair<std::string, std::string>> attrs,
    std::uint64_t id) const {
  if (!rec) return 0;
  const auto us = [](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            t.time_since_epoch())
            .count());
  };
  liplib::trace::Span s;
  s.trace_id = trace_id;
  s.parent_span = parent_span ? parent_span : parent;
  s.span_id = id ? id : new_id(s.parent_span);
  s.name = name;
  s.category = name.substr(0, name.find('.'));
  s.track = "perfbench";
  s.ts_us = us(t0);
  s.dur_us = us(t1) - s.ts_us;
  s.attrs = std::move(attrs);
  const std::uint64_t span_id = s.span_id;
  rec->record(std::move(s));
  return span_id;
}

}  // namespace perfbench
