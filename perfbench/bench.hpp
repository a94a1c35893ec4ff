// perfbench/bench.hpp
//
// Shared pieces of the liplib end-to-end benchmark: sample statistics
// with a percentile guard, the run result that becomes the final JSON
// line, child-process and loopback-socket helpers, the seeded input
// corpus, and the workload entry points.
//
// The benchmark drives the real system from outside: `lidtool serve`
// and `lidtool dist` run as child processes, the library's public entry
// points are called in-process.  See workloads.json for why each
// workload exists and which layer metric should move which end-to-end
// metric.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <latch>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/support/json.hpp"
#include "liplib/trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// A set of timing (or count) samples.  Percentiles are nearest-rank
/// and guarded: a percentile is only defined when at least ten samples
/// lie beyond it, so p90 needs >= 100 samples and p99 needs >= 1000.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  std::size_t size() const { return v_.size(); }
  double max() const;
  double median() const;
  std::optional<double> percentile(double p) const;
  /// The samples in order, each after a space, to 4 significant digits.
  std::string str() const;

 private:
  std::vector<double> v_;
};

/// One reported metric.  `samples` is printed next to the value in the
/// human-readable report; the final JSON line carries value and unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
};

/// Everything one run reports.  Every operation is attempted once;
/// `failed` counts operations that failed, were refused or were wrong.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< the JSON result line carries these
  std::vector<Metric> report;   ///< printed in the human table only
  std::vector<std::string> failures;  ///< first few failure reasons

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  /// Reports `name` as the guarded percentile of `s` (report only: the
  /// tails exist on the serve workloads alone, and every result line
  /// carries the same metric set).  A percentile without enough samples
  /// beyond it is a failure of the benchmark itself.
  void add_percentile(const std::string& name, const Samples& s, double p);
  void fail(const std::string& why, std::uint64_t count = 1);
  const Metric* find(const std::string& name) const;
};

/// Renders the result: a human table (value, unit, sample count) and,
/// as the last line, the JSON result object run.py forwards.
void print_result(const RunResult& r);

/// Shortest round-trip decimal rendering of a double.
std::string fmt_double(double v);

/// The host's current CPU speed relative to a nominal one: a fixed
/// integer-mixing walk over a 64 KiB table, timed once on each allowed
/// CPU, against 0.1 s per CPU.  The shared host's speed moves in
/// regimes that last minutes (measured: two sets of ten serve-cold runs
/// 20 minutes apart differed by 1.7x, a CPU spin loop by 1.8x), far
/// beyond what averaging inside one run can absorb.  A workload times
/// its operations in chunks with host_speed() between them and scales
/// each chunk by the mean of the readings around it: seconds are
/// multiplied by that factor, rates divided by it.
double host_speed();

// ---- processes and CPUs --------------------------------------------------

/// The CPUs this process may run on, in increasing order.
std::vector<int> allowed_cpus();
/// Pins thread `tid` (0: the caller) to the CPUs `cpus`; an empty set
/// releases it to every allowed CPU.
void pin_thread(pid_t tid, const std::vector<int>& cpus);
/// pin_thread for every thread of process `pid`.
void pin_process(pid_t pid, const std::vector<int>& cpus);

/// The allowed CPU of rotation step `step`, `offset` places further
/// on; empty (every allowed CPU) for step -1.
std::vector<int> rotation_cpu(int step, std::size_t offset = 0);

/// Moves work across the allowed CPUs: `move(step)` runs with step 0 at
/// once and with step 1, 2, ... every `period`, and the destructor stops
/// and calls `move(-1)`; rotation_cpu maps steps to CPUs.  The speed of
/// a virtual CPU drifts over minutes, independently per CPU (measured at
/// one moment: 10.0k, 13.2k, 10.9k and 10.0k serve-hot req/s on CPUs
/// 0-3), so work that rotates sees every CPU for the same time.
class CpuRotation {
 public:
  CpuRotation(std::function<void(int)> move,
              std::chrono::milliseconds period);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Length of one full rotation over the allowed CPUs.
  double cycle_seconds() const;

 private:
  std::function<void(int)> move_;
  std::chrono::milliseconds period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  ///< last: it uses every member above
};

/// A child process with its stdout on a pipe, optionally pinned to one
/// CPU.  The destructor kills and reaps a child that is still running,
/// so no path leaks a process.
class Child {
 public:
  explicit Child(const std::vector<std::string>& argv, int pin_cpu = -1);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  /// Next stdout line; throws when the child closes stdout or
  /// `timeout_s` passes first.
  std::string read_line(double timeout_s);
  /// Reads stdout to EOF, then reaps the child.  Returns the exit code
  /// (128 + signal when killed); fills the child's peak RSS in MiB and
  /// the rest of its output.
  int wait(double* peak_rss_mb = nullptr, std::string* rest = nullptr,
           double timeout_s = 150);
  /// `Threads:` of /proc/<pid>/status (0 when unreadable).
  long threads() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
  bool reaped_ = false;
};

/// Reads the port from the start-up line of a `lidtool serve` or
/// `lidtool dist coordinate` child ("... on 127.0.0.1:<port> ...").
std::uint16_t read_port(Child& child);

// ---- loopback liplib.rpc/1 client ---------------------------------------

/// One client connection (length-prefixed JSON frames).
class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  /// Sends one frame and reads the answer frame (throws on EOF/error).
  std::string call(const std::string& payload);

 private:
  int fd_ = -1;
};

/// One request on a fresh connection, as `lidtool client` does.
std::string call_once(std::uint16_t port, const std::string& payload);

/// Parses a response envelope; throws unless it is {"ok": true, ...}.
liplib::Json ok_result(const std::string& response);

/// The `result` member of a success envelope, which the daemon splices
/// in last and verbatim (empty when there is none).
std::string result_bytes(const std::string& envelope);

// ---- host readings -------------------------------------------------------

/// TCP sockets in TIME_WAIT, from /proc/net/sockstat (-1 if unreadable).
long tcp_time_wait();
/// A size field ("VmRSS:", "VmHWM:") of this process, MiB (0 if
/// unreadable).
double self_vm_mb(const char* field);
/// Returns freed heap to the kernel and resets this process's VmHWM to
/// its current RSS (Linux clear_refs 5); returns that RSS in MiB.
double reset_peak_rss();

// ---- seeded inputs -------------------------------------------------------

/// One generated design: the netlist text the program under test
/// receives, plus the topology the oracles check against.
struct Design {
  std::string name;
  std::string text;
  liplib::graph::Topology topo;
};

/// serve-hot: 16 live random composites of 6-12 segments.
std::vector<Design> hot_designs(std::uint64_t seed);
/// serve-cold: `n` distinct live random composites of 2-4 segments.
std::vector<Design> cold_designs(std::uint64_t seed, std::size_t n);
/// serve-cold's set-up screen: one fixed live composite of 5 segments,
/// the same for every seed (so set-up time does not follow the seed) and
/// never equal to a timed design, which has 2-4 segments.
Design cold_warmup_design();
/// The traced run's verify replay: half-station pipelines of about 2.5k
/// and 5k shells, then `composites` live random composites of 14-20
/// segments.
std::vector<Design> verify_corpus(std::uint64_t seed,
                                  std::size_t composites);
/// Number of half-station chains at the head of verify_corpus.
inline constexpr std::size_t kVerifyChains = 2;

/// The liplib.rpc/1 request bodies of serve-hot: 16 designs x {lint,
/// screen}, key k = 2 * design + (screen ? 1 : 0).
std::vector<std::string> hot_requests(const std::vector<Design>& designs);
/// A default-knob screen request (no engine, no budget field).
std::string cold_request(const Design& d);

// ---- workloads -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string lidtool;  ///< path of the lidtool binary
  std::string workdir;  ///< directory for the run's temporary files
};

/// Optional span sink of a traced run: every operation the benchmark
/// times is also recorded as a span under `parent`.
struct Tracer {
  liplib::trace::Recorder* rec = nullptr;
  std::uint64_t trace_id = 0;
  std::uint64_t parent = 0;

  bool on() const { return rec != nullptr; }
  /// A fresh span id under `parent_span` (default: `parent`), for a
  /// span whose children are recorded before it closes.
  std::uint64_t new_id(std::uint64_t parent_span = 0) const;
  /// Records [t0, t1] as a span named `name` under `parent_span`
  /// (default: `parent`), with id `id` or a fresh one; returns the id.
  std::uint64_t span(
      const std::string& name, Clock::time_point t0, Clock::time_point t1,
      std::uint64_t parent_span = 0,
      std::vector<std::pair<std::string, std::string>> attrs = {},
      std::uint64_t id = 0) const;
};

/// Size of one run: every workload does a fixed amount of work derived
/// from --seconds (never from measured speed), so memory that grows
/// with work does not grow with speed.
struct Size {
  std::size_t hot_requests = 0;    ///< timed serve-hot requests
  std::size_t cold_requests = 0;   ///< timed serve-cold requests
  std::size_t dist_jobs = 0;       ///< fuzz jobs per campaign
  std::size_t dist_campaigns = 0;  ///< campaigns per run
};
Size size_for(unsigned seconds);

RunResult run_serve_hot(const Options& o, const Size& s, const Tracer& t);
RunResult run_serve_cold(const Options& o, const Size& s, const Tracer& t);
RunResult run_dist_sweep(const Options& o, const Size& s, const Tracer& t);

/// The traced run: the workload once more with spans on, then the
/// per-layer replay of every layer's public functions.  Returns the
/// per-layer metrics.
RunResult run_traced(const Options& o);

// ---- oracles and failure counting (driven by `perfbench selftest`) -----

/// serve-cold: the response's verdict and throughputs must match an
/// in-process xir::screen_for_deadlock.  Fills `why` on mismatch.
bool cold_response_ok(const std::string& response,
                      const liplib::graph::Topology& topo,
                      std::string* why);

/// One serve-hot client's requests and what went wrong with them.
struct HotLane {
  pid_t tid = 0;
  std::vector<double> rtt_ms;
  std::vector<Clock::time_point> done_at;
  std::uint64_t bad = 0;  ///< responses not byte-identical to the hit
  std::string error;      ///< why the lane stopped early
};

/// Runs one serve-hot client: connects once, waits on `ready` (when
/// given), then sends `n` requests drawn uniformly from `reqs` with an
/// RNG seeded by `seed`; a response must equal `expected` at that key.
void drive_hot_lane(HotLane& lane, std::uint16_t port,
                    const std::vector<std::string>& reqs,
                    const std::vector<std::string>& expected, std::size_t n,
                    std::uint64_t seed, std::latch* ready, const Tracer& t);

/// Counts each lane's wrong responses and unsent requests (`n` were
/// due per lane) as failures of `r`; returns the requests answered.
std::size_t tally_hot_lanes(RunResult& r, const std::vector<HotLane>& lanes,
                            std::size_t n);

/// dist-sweep: each merged aggregate that is not byte-identical to the
/// unsharded `reference` fails its `jobs` operations (an empty one
/// stands for a campaign already counted as failed).
void check_aggregates(RunResult& r, const std::vector<std::string>& merged,
                      const std::string& reference, std::size_t jobs);

}  // namespace perfbench
