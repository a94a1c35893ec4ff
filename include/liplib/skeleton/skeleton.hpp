// liplib/skeleton/skeleton.hpp
//
// The skeleton simulator: "we are allowed to simulate just the skeleton of
// the system consisting of stop and valid signals, thus the simulation
// cost is absolutely negligible" (paper, liveness section).
//
// A Skeleton simulates only the control plane of a latency-insensitive
// design — validity bits, occupancies and stop wires — with no data
// movement and no pearl evaluation.  Its protocol dynamics are exactly
// those of lip::System (the test suite locks the two together), but its
// state is a few bytes per block, which makes transient-extinction
// screening essentially free.
//
// This interpreter is the reference oracle.  Production screening runs
// the compiled xir::ScalarEngine over the same semantics; the
// differential tests and benches hold the two together.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "liplib/graph/topology.hpp"
#include "liplib/lip/token.hpp"
#include "liplib/support/rational.hpp"

namespace liplib::probe {
class Probe;
}  // namespace liplib::probe

namespace liplib::skeleton {

/// Options mirroring lip::SystemOptions (control plane only).
struct SkeletonOptions {
  lip::StopPolicy policy = lip::StopPolicy::kCasuDiscardOnVoid;
  lip::StopResolution resolution = lip::StopResolution::kPessimistic;
  /// Shell flavour, mirroring lip::SystemOptions::input_queue_depth:
  /// 0 = the paper's simplified shell; k > 0 = Carloni-style shells with
  /// k-deep input FIFOs (the skeleton tracks occupancies only).
  std::size_t input_queue_depth = 0;
};

/// Result of steady-state analysis on the skeleton.
struct SkeletonResult {
  bool found = false;          ///< a period was detected in budget
  std::uint64_t transient = 0; ///< first cycle of the periodic regime
  std::uint64_t period = 0;
  /// Firings per cycle of each process node, in node-id order.
  std::vector<Rational> shell_throughput;
  std::vector<graph::NodeId> shell_ids;
  bool deadlocked = false;         ///< no progress at all in the period
  bool has_starved_shell = false;  ///< some shell never fires

  Rational system_throughput() const {
    if (shell_throughput.empty()) return Rational(0);
    Rational best(1);
    for (const auto& t : shell_throughput) {
      if (t < best) best = t;
    }
    return best;
  }
  /// Node ids of shells that never fire in the steady state.
  std::vector<graph::NodeId> starved_shells() const;

  /// Records a repeat found by an engine: the regime from cycle
  /// `first_cycle` repeats every `cycles` cycles, in which shell i (of
  /// shell_ids) fires `fired(i)` times.
  template <typename Fired>
  void set_repeat(std::uint64_t first_cycle, std::uint64_t cycles,
                  Fired fired) {
    found = true;
    transient = first_cycle;
    period = cycles;
    deadlocked = !shell_ids.empty();
    for (std::size_t i = 0; i < shell_ids.size(); ++i) {
      const std::uint64_t n = fired(i);
      deadlocked = deadlocked && n == 0;
      has_starved_shell = has_starved_shell || n == 0;
      shell_throughput.emplace_back(static_cast<std::int64_t>(n),
                                    static_cast<std::int64_t>(cycles));
    }
  }
};

/// Signature widths of a pending-branch mask: a shell output port
/// serializes 2 bytes and a source 1 byte, unless its fan-out exceeds
/// that width; then the port serializes all 4 bytes of its 32-bit mask.
constexpr std::size_t kShellPortMaskBytes = 2;
constexpr std::size_t kSourceMaskBytes = 1;

/// Appends `mask` to a state signature under the width rule above.  Every
/// skeleton engine serializes its masks through this, so their
/// signatures repeat on the same cycles.
void append_pend_mask(std::string& sig, std::uint32_t mask,
                      std::size_t fanout, std::size_t base_bytes);

/// lcm(period, pattern_len), folding one sink pattern into an
/// environment period; an empty (greedy) pattern leaves it unchanged,
/// and 0 (overflowed) stays 0.
std::uint64_t env_period_of(std::uint64_t period, std::size_t pattern_len);

/// A skeleton engine's probe binding.  A probe observes one run, so a
/// copy (or a move) of an engine starts unobserved: a search can step
/// copies of a guarded engine without feeding their cycles to its probe.
class ProbeBinding {
 public:
  ProbeBinding() = default;
  ProbeBinding(const ProbeBinding&) {}
  ProbeBinding& operator=(const ProbeBinding&) { return *this = nullptr; }
  ProbeBinding& operator=(probe::Probe* p) {
    p_ = p;
    return *this;
  }
  probe::Probe* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  probe::Probe* p_ = nullptr;
};

/// Control-plane-only simulator of a latency-insensitive design.
class Skeleton {
 public:
  explicit Skeleton(const graph::Topology& topo, SkeletonOptions opts = {});

  /// Gives sink `node` a cyclic stop pattern (true = stop); default is a
  /// greedy never-stopping consumer.  Patterns make the environment
  /// periodic with period = lcm of pattern lengths (env_period()), which
  /// analyze() keys its repeats on.
  void set_sink_pattern(graph::NodeId node, std::vector<bool> pattern);

  /// Worst-case-occupancy fault injection: marks every relay station as
  /// holding (at least) one valid token, as if the system were observed
  /// under maximal traffic or perturbed by soft errors.  From *reset* a
  /// loop can never saturate (every directed cycle holds exactly its
  /// shells' tokens forever), which is why the paper observes that the
  /// deadlock's "injection will never occur" in well-formed runs; under
  /// this worst case, a loop whose stop path is fully combinational (all
  /// half stations) becomes a self-sustaining stop latch — the paper's
  /// "potential deadlock iff half relay stations are present in loops".
  void saturate_stations();

  /// Advances one clock cycle.
  void step();

  void run(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) step();
  }

  std::uint64_t cycle() const { return cycle_; }

  /// Firings of a process node so far.
  std::uint64_t fires(graph::NodeId process) const;

  /// Period of the sink environment: the lcm of the sink-pattern lengths
  /// (1 when every sink is greedy, 0 when the lcm overflows 64 bits).
  std::uint64_t env_period() const;

  /// Serialized protocol state (no counters), for period detection.
  /// Injective: together with the environment phase (cycle modulo
  /// env_period()) it determines every later cycle.
  std::string state_signature() const;

  /// Runs until the protocol state and the environment phase repeat
  /// (a map of every visited state; the oracle of ScalarEngine::analyze)
  /// and derives exact throughputs, transient, period and a verdict.
  SkeletonResult analyze(std::uint64_t max_cycles = 1u << 20);

  /// Attaches an observability probe (liplib/probe).  Must be called
  /// before the first step() on an unbound probe; `probe` must outlive
  /// the Skeleton.  Requires the simplified shell
  /// (input_queue_depth == 0).
  void attach_probe(probe::Probe& probe);

 private:
  /// Fanout is capped at 32 branches per port (pend is a 32-bit mask);
  /// the constructor rejects wider fanout, mirroring lip::System.
  struct Port {
    std::uint32_t pend = 0;
    std::vector<std::size_t> branch;  // segment ids
    void load_all() {
      pend = branch.empty()
                 ? 0
                 : (branch.size() >= 32 ? ~0u
                                        : ((1u << branch.size()) - 1));
    }
  };
  struct Station {
    graph::RsKind kind = graph::RsKind::kFull;
    unsigned occ = 0;
    bool v0 = false, v1 = false;  // slot validity (voids under strict)
    bool stop_reg = false;
    std::size_t in_seg = 0, out_seg = 0;
  };
  struct Shell {
    graph::NodeId node = 0;
    std::vector<std::size_t> in_seg;
    std::vector<Port> out;
    std::vector<std::uint8_t> q_size;  // queued mode: FIFO occupancies
    std::uint64_t fire_count = 0;
  };
  struct Source {
    Port port;
  };
  struct Sink {
    std::size_t in_seg = 0;
    std::vector<bool> pattern;  // empty = greedy
    std::uint64_t consumed = 0;
  };

  bool strict() const {
    return opts_.policy == lip::StopPolicy::kCarloniStrict;
  }
  bool shell_can_fire(const Shell& s) const;
  void settle_stops();
  void observe_probe();

  graph::Topology topo_;
  SkeletonOptions opts_;
  ProbeBinding probe_;
  std::uint64_t cycle_ = 0;
  std::vector<std::uint8_t> fwd_;   // per segment: presented validity
  std::vector<std::uint8_t> stop_;  // per segment: settled stop
  std::vector<Station> stations_;
  std::vector<Shell> shells_;
  std::vector<Source> sources_;
  std::vector<Sink> sinks_;
  std::vector<std::size_t> node_index_;
};

/// Paper's deadlock screening recipe: simulate the skeleton up to the
/// transient's extinction; "either the deadlock will show, or will be
/// forever avoided".
struct ScreeningVerdict {
  bool ran_to_steady_state = false;
  bool deadlock_found = false;  ///< full deadlock or starved shells
  std::uint64_t transient = 0;
  std::uint64_t period = 0;
  std::uint64_t cycles_simulated = 0;
  Rational min_throughput{0};
  std::vector<graph::NodeId> starved;
};

/// The screening verdict of an analysis that simulated `cycles` cycles.
ScreeningVerdict verdict_of(const SkeletonResult& r, std::uint64_t cycles);

/// How screen_for_deadlock initializes the design.
struct ScreeningOptions {
  SkeletonOptions skeleton;
  /// When set, screening starts from worst-case occupancy (one valid
  /// token in every relay station) instead of reset.  Reset-state
  /// screening proves the paper's observation that deadlock never injects
  /// in well-formed runs; worst-case screening exposes the latent stop
  /// latch of half stations on loops.
  bool worst_case_occupancy = false;
};

/// The reference screen on the interpreter: the oracle that the
/// differential tests and benches hold xir::screen_for_deadlock to.
ScreeningVerdict screen_for_deadlock(const graph::Topology& topo,
                                     ScreeningOptions opts = {},
                                     std::uint64_t max_cycles = 1u << 20);

/// Outcome of xir::cure_deadlocks.
struct CureResult {
  graph::Topology cured;
  bool success = false;
  std::size_t substitutions = 0;
  std::vector<graph::ChannelId> touched_channels;
};

}  // namespace liplib::skeleton
