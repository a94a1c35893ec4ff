// The end-to-end workloads.  Each does a fixed amount of work
// (Size), times it from outside the program, and checks every output
// after the timed section.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/xir/xir.hpp"

namespace perfbench {

using liplib::Json;

Size size_for(unsigned seconds) {
  Size s;
  s.hot_requests = 18000u * seconds;
  // p90 needs at least 100 samples; connect-per-request runs ~5 req/s.
  s.cold_requests = std::max<std::size_t>(110, 6u * seconds);
  s.dist_jobs = 20000;
  s.dist_campaigns = std::max<std::size_t>(3, seconds / 4);
  return s;
}

// ---- oracles -------------------------------------------------------------

bool cold_response_ok(const std::string& response,
                      const liplib::graph::Topology& topo,
                      std::string* why) {
  try {
    const Json result = ok_result(response);
    const Json* verdict = result.find("verdict");
    if (!verdict || !verdict->is_string() || verdict->as_string() != "live") {
      *why = "verdict is not live";
      return false;
    }
    for (const bool worst : {false, true}) {
      const Json* part = result.find(worst ? "worst_case" : "from_reset");
      const Json* thr = part ? part->find("throughput") : nullptr;
      liplib::skeleton::ScreeningOptions so;
      so.worst_case_occupancy = worst;
      const auto v = liplib::xir::screen_for_deadlock(
          topo, so, liplib::serve::ServerOptions{}.default_budget);
      if (v.deadlock_found || !v.ran_to_steady_state) {
        *why = "in-process screen disagrees on liveness";
        return false;
      }
      const std::string want = v.min_throughput.str();
      if (!thr || !thr->is_string() || thr->as_string() != want) {
        *why = std::string(worst ? "worst-case" : "reset") + " throughput " +
               (thr && thr->is_string() ? thr->as_string() : "missing") +
               " != in-process " + want;
        return false;
      }
    }
    return true;
  } catch (const std::exception& e) {
    *why = e.what();
    return false;
  }
}

void drive_hot_lane(HotLane& lane, std::uint16_t port,
                    const std::vector<std::string>& reqs,
                    const std::vector<std::string>& expected, std::size_t n,
                    std::uint64_t seed, std::latch* ready, const Tracer& t) {
  lane.tid = ::gettid();
  lane.rtt_ms.reserve(n);
  lane.done_at.reserve(n);
  std::unique_ptr<Conn> c;
  try {
    c = std::make_unique<Conn>(port);
  } catch (const std::exception& e) {
    lane.error = e.what();
  }
  liplib::Rng rng(seed);
  if (ready) ready->arrive_and_wait();
  try {
    for (std::size_t i = 0; c && i < n; ++i) {
      const std::size_t k = rng.below(reqs.size());
      const auto a = Clock::now();
      const std::string resp = c->call(reqs[k]);
      const auto b = Clock::now();
      lane.rtt_ms.push_back(us_between(a, b) / 1000.0);
      lane.done_at.push_back(b);
      if (resp != expected[k]) ++lane.bad;
      if (t.on()) {
        t.span("serve.request", a, b, 0, {{"key", std::to_string(k)}});
      }
    }
  } catch (const std::exception& e) {
    lane.error = e.what();
  }
}

std::size_t tally_hot_lanes(RunResult& r, const std::vector<HotLane>& lanes,
                            std::size_t n) {
  std::size_t done = 0;
  for (const auto& lane : lanes) {
    done += lane.rtt_ms.size();
    if (lane.bad) {
      r.fail("response bytes differ from the warm-up hit", lane.bad);
    }
    if (lane.rtt_ms.size() < n) {
      r.fail("client: " + (lane.error.empty() ? "stopped" : lane.error),
             n - lane.rtt_ms.size());
    }
  }
  return done;
}

void check_aggregates(RunResult& r, const std::vector<std::string>& merged,
                      const std::string& reference, std::size_t jobs) {
  for (std::size_t rep = 0; rep < merged.size(); ++rep) {
    if (!merged[rep].empty() && merged[rep] != reference) {
      r.fail("campaign " + std::to_string(rep) +
                 ": merged aggregate differs from the unsharded run",
             jobs);
    }
  }
}

namespace {

const std::string kStatus = R"({"rpc":"liplib.rpc/1","kind":"status"})";
const std::string kShutdown = R"({"rpc":"liplib.rpc/1","kind":"shutdown"})";

/// serve-hot pins each client to a CPU of its own and the daemon to
/// those CPUs.  A hit costs tens of microseconds, so with threads free
/// to move the round trip is mostly cross-CPU wake-ups, whose latency
/// swings with the host's steal time (measured: 8k-21k req/s between
/// back-to-back runs).  With a client and the daemon thread serving it
/// on one CPU, a round trip is the CPU work of the hit path plus two
/// context switches.  The CPUs rotate (CpuRotation).  No `lidtool serve`
/// deployment runs so, so the run also reports an unpinned phase.
constexpr auto kRotate = std::chrono::milliseconds(500);

std::vector<std::string> serve_argv(const Options& o) {
  return {o.lidtool, "serve", "--port", "0", "--threads", "2"};
}

/// Cache counters of a daemon's status document.
struct CacheCounts {
  std::uint64_t hits = 0, misses = 0;
};

CacheCounts cache_counts(std::uint16_t port) {
  const Json st = ok_result(call_once(port, kStatus));
  const Json* cache = st.find("cache");
  if (!cache) throw std::runtime_error("status without cache block");
  return {cache->find("hits")->as_uint(), cache->find("misses")->as_uint()};
}

/// Graceful shutdown; returns the daemon's peak RSS in MiB.
double stop_daemon(Child& daemon, std::uint16_t port) {
  ok_result(call_once(port, kShutdown));
  double rss = 0;
  if (daemon.wait(&rss, nullptr, 60) != 0) {
    throw std::runtime_error("daemon exited non-zero");
  }
  return rss;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

// ---- serve-hot -----------------------------------------------------------

RunResult run_serve_hot(const Options& o, const Size& s, const Tracer& t) {
  RunResult r;
  const double speed_before = host_speed();
  const auto reqs = hot_requests(hot_designs(o.seed));
  const std::size_t keys = reqs.size();
  std::cout << "serve-hot: " << keys << " keys, " << s.hot_requests
            << " timed requests, 2 clients on persistent connections;"
            << " tcp TIME_WAIT " << tcp_time_wait() << "\n";

  // Set-up, eight times: spawn, first status answer, warm every key.
  // Each set-up runs on one CPU, the client beside the daemon as in the
  // timed loop, and the set-ups take the CPUs in turn, so one slow CPU
  // moves one sample of the median.  The last daemon serves the timed
  // load.
  constexpr int kSetups = 8;
  const std::vector<int> cpus = allowed_cpus();
  Samples setup;
  std::unique_ptr<Child> daemon;
  std::uint16_t port = 0;
  std::vector<std::string> expected(keys);
  for (int rep = 0; rep < kSetups; ++rep) {
    if (daemon) stop_daemon(*daemon, port);
    const std::vector<int> cpu = rotation_cpu(rep);
    pin_thread(0, cpu);
    const auto t0 = Clock::now();
    daemon = std::make_unique<Child>(serve_argv(o), cpu.empty() ? -1 : cpu[0]);
    port = read_port(*daemon);
    Conn c(port);
    ok_result(c.call(kStatus));
    for (std::size_t k = 0; k < keys; ++k) {
      r.attempted += 2;
      const std::string miss = c.call(reqs[k]);
      expected[k] = c.call(reqs[k]);
      ok_result(miss);
      const std::string bytes = result_bytes(miss);
      if (bytes.empty() || bytes != result_bytes(expected[k]) ||
          expected[k].find("\"cached\":true") == std::string::npos) {
        r.fail("warm-up: the hit differs from the miss for key " +
                   std::to_string(k),
               2);
      }
    }
    setup.add(seconds_between(t0, Clock::now()));
  }
  pin_thread(0, {});
  std::cout << "serve-hot: set-up times (s):" << setup.str() << "\n";
  const CacheCounts before = cache_counts(port);

  // Starts one lane per client; returns once every lane has connected.
  constexpr unsigned kClients = 2;
  auto launch = [&](std::vector<HotLane>& lanes,
                    std::vector<std::thread>& threads, std::latch& ready,
                    std::size_t n, std::uint64_t salt) {
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, n, salt, i] {
        drive_hot_lane(lanes[i], port, reqs, expected, n,
                       o.seed * 2654435761u + salt + i + 1, &ready, t);
      });
    }
    ready.arrive_and_wait();
  };

  // Timed closed loop: 2 clients, one persistent connection each, keys
  // drawn uniformly with a seeded RNG, on the daemon's current CPU.  It
  // runs in chunks, each scaled by the host speed measured right before
  // and after it, as dist-sweep scales each campaign: the host's speed
  // moves within one run.  Each metric is the median over slices of one
  // full CPU rotation, so every slice weighs every CPU alike and a host
  // hiccup confined to one slice moves nothing.
  constexpr std::size_t kChunks = 4;
  const std::size_t per_client = s.hot_requests / kClients / kChunks;
  const std::size_t half = std::max<std::size_t>(1, cpus.size() / 2);
  Samples thr, p50, p90, p99, raw_thr, raw_p50;
  std::size_t done = 0;
  double wall = 0, nominal_wall = 0;
  double speed = host_speed();
  const double setup_f = (speed_before + speed) / 2;
  std::cout << "serve-hot: throughput per slice:";
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::vector<HotLane> lanes(kClients);
    std::vector<std::thread> threads;
    std::latch ready(kClients + 1);
    launch(lanes, threads, ready, per_client, 10 * c);
    const auto start = Clock::now();
    double cycle_s = 0;
    {
      // Each client has a CPU of its own, half a rotation from the
      // other, and the daemon is pinned to those two CPUs, so the thread
      // serving a client wakes where that client runs.
      CpuRotation rotate(
          [&](int step) {
            std::vector<int> daemon_cpus;
            for (unsigned i = 0; i < kClients; ++i) {
              const auto cpu = rotation_cpu(step, i * half);
              pin_thread(lanes[i].tid, cpu);
              daemon_cpus.insert(daemon_cpus.end(), cpu.begin(), cpu.end());
            }
            pin_process(daemon->pid(), daemon_cpus);
          },
          kRotate);
      cycle_s = rotate.cycle_seconds();
      for (auto& th : threads) th.join();
    }
    const double w = seconds_between(start, Clock::now());
    r.attempted += per_client * kClients;
    done += tally_hot_lanes(r, lanes, per_client);
    const double after = host_speed();
    const double f = (speed + after) / 2;
    speed = after;
    wall += w;
    nominal_wall += w * f;

    const std::size_t n_slices =
        std::max<std::size_t>(1, static_cast<std::size_t>(w / cycle_s));
    std::vector<Samples> slice_rtt(n_slices);
    for (const auto& lane : lanes) {
      for (std::size_t n = 0; n < lane.rtt_ms.size(); ++n) {
        const double at = seconds_between(start, lane.done_at[n]) / cycle_s;
        slice_rtt[std::min(n_slices - 1, static_cast<std::size_t>(at))].add(
            lane.rtt_ms[n]);
      }
    }
    for (std::size_t k = 0; k < n_slices; ++k) {
      const Samples& sl = slice_rtt[k];
      // The last slice also holds the chunk's tail beyond whole cycles.
      const double width = k + 1 < n_slices
                               ? cycle_s
                               : w - cycle_s * static_cast<double>(k);
      const double rate = static_cast<double>(sl.size()) / width;
      std::cout << " " << static_cast<long>(rate);
      raw_thr.add(rate);
      raw_p50.add(sl.median());
      thr.add(rate / f);
      p50.add(sl.median() * f);
      RunResult tails;
      tails.add_percentile("p90", sl, 90);
      tails.add_percentile("p99", sl, 99);
      if (tails.failed) {
        r.fail("a slice of " + std::to_string(sl.size()) +
               " requests: " + tails.failures[0]);
        continue;
      }
      p90.add(tails.report[0].value * f);
      p99.add(tails.report[1].value * f);
    }
  }
  std::cout << "\nserve-hot: " << done << " requests in " << fmt_double(wall)
            << " s\n";

  // The same loop unpinned, a tenth as long: cross-CPU wake-ups and
  // the daemon's own placement included.  Report only (raw): its speed
  // follows the host's steal time.
  const std::size_t free_per_client =
      std::max<std::size_t>(1, s.hot_requests / kClients / 10);
  std::vector<HotLane> free_lanes(kClients);
  std::vector<std::thread> free_threads;
  std::latch free_ready(kClients + 1);
  launch(free_lanes, free_threads, free_ready, free_per_client, 1000);
  const auto free_start = Clock::now();
  for (auto& th : free_threads) th.join();
  const double free_wall = seconds_between(free_start, Clock::now());
  r.attempted += free_per_client * kClients;
  const std::size_t free_done =
      tally_hot_lanes(r, free_lanes, free_per_client);
  Samples free_rtt;
  for (const auto& lane : free_lanes) {
    for (const double ms : lane.rtt_ms) free_rtt.add(ms);
  }

  const CacheCounts after = cache_counts(port);
  if (after.misses != before.misses ||
      after.hits - before.hits != done + free_done) {
    r.fail("timed requests were not all cache hits");
  }
  const double rss = stop_daemon(*daemon, port);

  r.add("setup_s", setup.median() * setup_f, "s", setup.size());
  r.add("throughput_ops", thr.median(), "1/s", done);
  r.add("latency_p50_ms", p50.median(), "ms", done);
  r.add("peak_rss_mb", rss, "MB");
  r.report.push_back({"latency_p90_ms", p90.median(), "ms", done});
  r.report.push_back({"latency_p99_ms", p99.median(), "ms", done});
  r.report.push_back({"raw.setup_s", setup.median(), "s", setup.size()});
  r.report.push_back({"raw.throughput_ops", raw_thr.median(), "1/s", done});
  r.report.push_back({"raw.latency_p50_ms", raw_p50.median(), "ms", done});
  r.report.push_back({"host_speed", nominal_wall / wall, "x", kChunks + 1});
  r.report.push_back({"raw.unpinned.throughput_ops",
                      static_cast<double>(free_done) / free_wall, "1/s",
                      free_done});
  r.report.push_back(
      {"raw.unpinned.latency_p50_ms", free_rtt.median(), "ms", free_done});
  return r;
}

// ---- serve-cold ----------------------------------------------------------

RunResult run_serve_cold(const Options& o, const Size& s, const Tracer& t) {
  RunResult r;
  const double speed_before = host_speed();
  const std::size_t n = s.cold_requests;
  const auto designs = cold_designs(o.seed, n);
  const Design warm = cold_warmup_design();
  std::vector<std::string> payloads;
  for (const auto& d : designs) payloads.push_back(cold_request(d));
  std::cout << "serve-cold: " << n << " distinct default-knob screens,"
            << " 2 clients, one connection per request; tcp TIME_WAIT "
            << tcp_time_wait() << "\n";

  // Set-up, five times: spawn the daemon, its first status answer and
  // one screen of a fixed warm-up design outside the timed set.  A spawn
  // alone takes a few milliseconds, too little to time steadily; the
  // warm-up is the daemon's first real work.
  constexpr int kSetups = 5;
  Samples setup;
  std::unique_ptr<Child> daemon;
  std::uint16_t port = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (daemon) stop_daemon(*daemon, port);
    const auto t0 = Clock::now();
    daemon = std::make_unique<Child>(serve_argv(o));
    port = read_port(*daemon);
    ok_result(call_once(port, kStatus));
    const std::string resp = call_once(port, cold_request(warm));
    setup.add(seconds_between(t0, Clock::now()));
    if (rep + 1 == kSetups) {
      std::cout << "serve-cold: set-up times (s):" << setup.str() << "\n";
    }
    std::string why;
    ++r.attempted;
    if (!cold_response_ok(resp, warm.topo, &why)) {
      r.fail("warm-up " + warm.name + ": " + why);
    }
  }

  // The timed requests run in chunks, each scaled by the host speed
  // measured right before and after it, as dist-sweep scales each
  // campaign: the host's speed moves within one run.
  constexpr unsigned kClients = 2;
  constexpr std::size_t kChunks = 4;
  std::vector<std::string> responses(n);
  std::vector<double> rtt_ms(n, -1);
  std::vector<std::string> errors(n);
  std::vector<double> chunk_f(n);  // the scale factor of each request
  double speed = host_speed();
  const double setup_f = (speed_before + speed) / 2;
  double wall = 0, nominal_wall = 0;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::size_t lo = n * c / kChunks, hi = n * (c + 1) / kChunks;
    std::atomic<std::size_t> next{lo};
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&] {
        for (std::size_t k; (k = next.fetch_add(1)) < hi;) {
          const auto a = Clock::now();
          try {
            responses[k] = call_once(port, payloads[k]);
          } catch (const std::exception& e) {
            errors[k] = e.what();
            continue;
          }
          const auto b = Clock::now();
          rtt_ms[k] = us_between(a, b) / 1000.0;
          if (t.on()) {
            t.span("serve.request", a, b, 0, {{"design", designs[k].name}});
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const double w = seconds_between(start, Clock::now());
    const double after = host_speed();
    const double f = (speed + after) / 2;
    speed = after;
    std::fill(chunk_f.begin() + static_cast<long>(lo),
              chunk_f.begin() + static_cast<long>(hi), f);
    wall += w;
    nominal_wall += w * f;
  }
  const long daemon_threads = daemon->threads();
  const CacheCounts counts = cache_counts(port);
  const double rss = stop_daemon(*daemon, port);

  r.attempted += n;
  Samples rtt, raw_rtt;
  std::size_t done = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::string why;
    if (!errors[k].empty()) {
      r.fail("request " + std::to_string(k) + ": " + errors[k]);
    } else if (!cold_response_ok(responses[k], designs[k].topo, &why)) {
      r.fail(designs[k].name + ": " + why);
    } else {
      ++done;
    }
    if (rtt_ms[k] >= 0) {
      rtt.add(rtt_ms[k] * chunk_f[k]);
      raw_rtt.add(rtt_ms[k]);
    }
  }
  if (counts.misses != n + 1 || counts.hits != 0) {
    r.fail("timed requests were not all cache misses");
  }
  std::cout << "serve-cold: daemon threads at the end " << daemon_threads
            << "\n";

  const double d = static_cast<double>(done);
  r.add("setup_s", setup.median() * setup_f, "s", setup.size());
  r.add("throughput_ops", d / nominal_wall, "1/s", done);
  r.add("latency_p50_ms", rtt.median(), "ms", rtt.size());
  r.add("peak_rss_mb", rss, "MB");
  r.add_percentile("latency_p90_ms", rtt, 90);
  r.report.push_back({"raw.setup_s", setup.median(), "s", setup.size()});
  r.report.push_back({"raw.throughput_ops", d / wall, "1/s", done});
  r.report.push_back(
      {"raw.latency_p50_ms", raw_rtt.median(), "ms", raw_rtt.size()});
  r.report.push_back({"host_speed", nominal_wall / wall, "x", kChunks + 1});
  return r;
}

// ---- dist-sweep ----------------------------------------------------------

namespace {

/// One campaign through `lidtool dist`: the coordinator, then two
/// one-thread workers once it has printed its port.
struct Campaign {
  double spawn_s = 0;  ///< spawning the coordinator until both workers run
  double total_s = 0;  ///< spawning the coordinator until it has merged
  double rss_mb = 0;   ///< the largest VmHWM of the three processes
  std::string error;   ///< non-empty when a process exited non-zero
  std::string merged;  ///< the merged aggregate file
};

Campaign run_campaign(const Options& o, std::size_t jobs,
                      const std::string& out, const Tracer& t,
                      const std::string& label) {
  std::filesystem::remove(out);
  Campaign c;
  const auto t0 = Clock::now();
  Child coord({o.lidtool, "dist", "coordinate", "fuzz", std::to_string(jobs),
               "--shards", "8", "--seed", std::to_string(o.seed), "--json",
               out});
  const std::string port = std::to_string(read_port(coord));
  Child w1({o.lidtool, "dist", "work", "--port", port, "--threads", "1"});
  Child w2({o.lidtool, "dist", "work", "--port", port, "--threads", "1"});
  const auto t1 = Clock::now();
  double rss[3] = {0, 0, 0};
  const int rc = coord.wait(&rss[0]);
  const auto t2 = Clock::now();
  const int rw1 = w1.wait(&rss[1]);
  const int rw2 = w2.wait(&rss[2]);
  if (t.on()) {
    const auto id = t.span("dist.campaign", t0, t2, 0, {{"run", label}});
    t.span("dist.setup", t0, t1, id);
  }
  c.spawn_s = seconds_between(t0, t1);
  c.total_s = seconds_between(t0, t2);
  c.rss_mb = std::max({rss[0], rss[1], rss[2]});
  if (rc != 0 || rw1 != 0 || rw2 != 0) {
    c.error = label + ": coordinator exit " + std::to_string(rc) +
              ", workers " + std::to_string(rw1) + "/" + std::to_string(rw2);
  } else {
    c.merged = read_file(out);
  }
  return c;
}

/// The aggregate file of an unsharded in-process campaign::Engine run.
std::string reference_aggregate(std::uint64_t seed, std::size_t jobs) {
  liplib::campaign::NamedCampaignSpec spec;
  spec.mode = "fuzz";
  spec.jobs = jobs;
  liplib::campaign::EngineOptions eopts;
  eopts.threads = static_cast<unsigned>(
      std::clamp<std::size_t>(allowed_cpus().size(), 1, 4));
  eopts.base_seed = seed;
  eopts.cycle_budget = 1u << 18;
  const auto results = liplib::campaign::Engine(eopts).run(
      liplib::campaign::make_named_campaign(spec));
  return liplib::campaign::to_json(liplib::campaign::aggregate(results))
             .dump(2) +
         "\n";
}

}  // namespace

RunResult run_dist_sweep(const Options& o, const Size& s, const Tracer& t) {
  RunResult r;
  // Each campaign's set-up is a warm-up campaign a tenth the size run to
  // its merge, then spawning the timed campaign's processes: spawning
  // alone takes a few milliseconds, too little to time steadily.
  const std::size_t warm_jobs = s.dist_jobs / 10;
  std::cout << "dist-sweep: " << s.dist_campaigns << " campaigns of "
            << s.dist_jobs << " fuzz jobs (each after a warm-up of "
            << warm_jobs << "), 8 shards, 2 workers x 1 thread\n";
  // Campaigns run one after another, so each is scaled by the host
  // speed measured right before and after it: a host slowdown during
  // one campaign then moves one sample of the median, not the run.
  Samples setup, throughput, campaign_ms, raw_throughput, speeds;
  double speed = host_speed();
  double rss = 0;
  std::vector<std::string> merged, warm_merged;
  for (std::size_t rep = 0; rep < s.dist_campaigns; ++rep) {
    const std::string tag = std::to_string(rep);
    const Campaign warm =
        run_campaign(o, warm_jobs, o.workdir + "/dist_warm_" + tag + ".json",
                     t, "warm-up " + tag);
    const Campaign c =
        run_campaign(o, s.dist_jobs,
                     o.workdir + "/dist_merged_" + tag + ".json", t,
                     "campaign " + tag);
    const double next = host_speed();
    const double f = (speed + next) / 2;
    speed = next;
    const double rate = static_cast<double>(s.dist_jobs) / c.total_s;
    speeds.add(f);
    raw_throughput.add(rate);
    setup.add((warm.total_s + c.spawn_s) * f);
    throughput.add(rate / f);
    campaign_ms.add(c.total_s * 1000.0 * f);
    rss = std::max({rss, warm.rss_mb, c.rss_mb});
    r.attempted += warm_jobs + s.dist_jobs;
    if (!warm.error.empty()) r.fail(warm.error, warm_jobs);
    if (!c.error.empty()) r.fail(c.error, s.dist_jobs);
    warm_merged.push_back(warm.merged);
    merged.push_back(c.merged);
  }

  std::cout << "dist-sweep: set-up times (s, scaled):" << setup.str()
            << "\n";

  // Oracle: unsharded engine runs, outside the timed sections.
  check_aggregates(r, warm_merged, reference_aggregate(o.seed, warm_jobs),
                   warm_jobs);
  check_aggregates(r, merged, reference_aggregate(o.seed, s.dist_jobs),
                   s.dist_jobs);

  r.add("setup_s", setup.median(), "s", setup.size());
  r.add("throughput_ops", throughput.median(), "1/s", throughput.size());
  r.add("latency_p50_ms", campaign_ms.median(), "ms", campaign_ms.size());
  r.add("peak_rss_mb", rss, "MB");
  r.report.push_back(
      {"raw.throughput_ops", raw_throughput.median(), "1/s", speeds.size()});
  r.report.push_back({"host_speed", speeds.median(), "x", speeds.size()});
  return r;
}

}  // namespace perfbench
