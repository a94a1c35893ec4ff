// The traced run: per-layer metrics.
//
// The workload runs twice at half size, untraced and then traced, and
// the difference is the tracing overhead.  Then the same seeded inputs
// of every workload are replayed through each layer's public functions,
// one timed call at a time, with a span per call recorded by the
// benchmark's own trace::Recorder.  The span document must pass
// `lidtool trace --check`.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>

#include "bench.hpp"
#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/campaign/report.hpp"
#include "liplib/dist/shard.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/lint/lint.hpp"
#include "liplib/prove/prove.hpp"
#include "liplib/serve/cache.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/xir/xir.hpp"

namespace perfbench {

namespace {

using liplib::Json;
namespace serve = liplib::serve;

/// Times `fn`, records it as a span under `parent` and returns µs.
template <typename Fn>
double timed(const Tracer& t, const char* name, std::uint64_t parent,
             Fn&& fn) {
  const auto a = Clock::now();
  fn();
  const auto b = Clock::now();
  t.span(name, a, b, parent);
  return us_between(a, b);
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
  }
  return out;
}

/// The daemon's content hash: canonical netlist, then each annotation.
std::uint64_t content_hash(const std::string& text) {
  const auto net = liplib::graph::parse_netlist_annotated_string(text);
  std::uint64_t h = serve::fnv1a64(liplib::graph::write_netlist(net.topo));
  for (const auto& a : net.node_annotation) {
    h = serve::fnv1a64(a, h * 0x100000001b3ull + 1);
  }
  return h;
}

/// The daemon's cache key of a lint or screen request.  The replay
/// checks it against the daemon's own cache (a hit on this key through
/// serve::handle_payload), so drift in the key or hash scheme fails the
/// run.
std::string cache_key(const serve::Request& req,
                      const serve::ServerOptions& opts) {
  const std::string h = hex64(content_hash(req.netlist));
  if (req.kind == serve::RequestKind::kLint) return "lint/" + h;
  const std::uint64_t budget = std::min(
      req.budget == 0 ? opts.default_budget : req.budget, opts.max_budget);
  return "screen/" + h + "/" + req.policy + "/engine=" + req.engine +
         "/budget=" + std::to_string(budget);
}

const std::string kStatus = R"({"rpc":"liplib.rpc/1","kind":"status"})";

void shutdown_daemon(Child& d, std::uint16_t port) {
  ok_result(call_once(port, R"({"rpc":"liplib.rpc/1","kind":"shutdown"})"));
  d.wait(nullptr, nullptr, 60);
}

std::uint64_t counter(const Json& status, const char* block,
                      const char* name) {
  return status.find(block)->find(name)->as_uint();
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b ? static_cast<double>(a) / static_cast<double>(b) : 0;
}

// ---- serve-hot layers ----------------------------------------------------

void replay_serve_hot(const Options& o, const Tracer& t, RunResult& out) {
  const auto g0 = Clock::now();
  const auto group = t.new_id();
  const auto reqs = hot_requests(hot_designs(o.seed));
  constexpr int kRounds = 60;

  // In-process: the hit path one public function at a time, against a
  // context whose cache serve::handle_payload warmed with every key.
  serve::ServerOptions sopts;
  sopts.threads = 2;
  serve::ServeContext ctx(sopts);
  std::vector<std::string> keys, results;
  for (const auto& p : reqs) {
    results.push_back(result_bytes(serve::handle_payload(p, ctx)));
    keys.push_back(cache_key(serve::parse_request(Json::parse(p)), sopts));
  }
  liplib::trace::Recorder daemon_like;
  Samples json_parse, parse_request, parse_hash, lookup, envelope, record,
      observe, handle;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < reqs.size(); ++k) {
      const auto a = Clock::now();
      const auto op = t.new_id(group);
      Json doc;
      serve::Request req;
      std::uint64_t h = 0;
      std::optional<std::string> hit;
      json_parse.add(timed(t, "support.json_parse", op,
                           [&] { doc = Json::parse(reqs[k]); }));
      parse_request.add(timed(t, "serve.parse_request", op,
                              [&] { req = serve::parse_request(doc); }));
      parse_hash.add(timed(t, "graph.parse_hash", op,
                           [&] { h = content_hash(req.netlist); }));
      lookup.add(timed(t, "serve.cache_lookup", op,
                       [&] { hit = ctx.cache.lookup(keys[k]); }));
      if (!hit || *hit != results[k]) {
        out.fail("the replay's cache key misses the daemon's cache");
        continue;
      }
      envelope.add(timed(t, "serve.envelope", op, [&] {
        serve::encode_frame(
            serve::success_envelope(req.id, req.kind, true, *hit));
      }));
      record.add(timed(t, "trace.record", op, [&] {
        liplib::trace::Span s;
        s.trace_id = liplib::trace::derive_trace_id(h);
        s.span_id = liplib::trace::derive_span_id(s.trace_id, 0,
                                                  daemon_like.next_seq());
        s.name = "serve.lint";
        s.category = s.track = "serve";
        s.attrs.emplace_back("cache", "hit");
        daemon_like.record(std::move(s));
      }));
      observe.add(timed(t, "support.metrics_observe", op, [&] {
        ctx.registry.observe(
            "liplib_serve_request_latency_us",
            {{"kind", "lint"}, {"engine", "none"}, {"cache", "hit"}}, 100);
      }));
      t.span("serve.hit", a, Clock::now(), group, {}, op);
    }
  }

  // The whole hit path, in-process and then through the daemon, each in
  // a loop of its own on one CPU (as serve-hot), so transport_us is the
  // difference of two equally warm measurements.
  const std::vector<int> cpu = rotation_cpu(0);
  pin_thread(0, cpu);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < reqs.size(); ++k) {
      std::string resp;
      handle.add(timed(t, "serve.handle_payload", group,
                       [&] { resp = serve::handle_payload(reqs[k], ctx); }));
      if (result_bytes(resp) != results[k]) {
        out.fail("in-process hit differs from the miss");
      }
    }
  }
  out.attempted += kRounds * reqs.size();

  Child daemon({o.lidtool, "serve", "--port", "0", "--threads", "2"},
               cpu.empty() ? -1 : cpu[0]);
  const std::uint16_t port = read_port(daemon);
  Samples rtt;
  Json before, after, spans;
  {
    Conn c(port);
    for (const auto& p : reqs) c.call(p);
    before = ok_result(c.call(kStatus));
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t k = 0; k < reqs.size(); ++k) {
        const auto a = Clock::now();
        const std::string resp = c.call(reqs[k]);
        const auto b = Clock::now();
        rtt.add(us_between(a, b));
        t.span("serve.rtt", a, b, group);
        if (result_bytes(resp) != results[k]) {
          out.fail("daemon hit differs from in-process");
        }
      }
    }
    after = ok_result(c.call(kStatus));
    spans = ok_result(c.call(R"({"rpc":"liplib.rpc/1","kind":"trace"})"));
  }
  pin_thread(0, {});
  shutdown_daemon(daemon, port);
  out.attempted += rtt.size();
  const std::uint64_t hit_delta =
      counter(after, "cache", "hits") - counter(before, "cache", "hits");
  // The later status request counts itself.
  const std::uint64_t req_delta = counter(after, "requests", "total") -
                                  counter(before, "requests", "total") - 1;
  if (hit_delta != req_delta || req_delta != rtt.size()) {
    out.fail("serve-hot replay: not every daemon request was a cache hit");
  }

  t.span("replay.serve_hot", g0, Clock::now(), 0, {}, group);
  const double handle_us = handle.median();
  out.add("serve.rtt_us", rtt.median(), "us", rtt.size());
  out.add("serve.transport_us", rtt.median() - handle_us, "us", rtt.size());
  out.add("serve.handle_payload_us", handle_us, "us", handle.size());
  out.add("support.json_parse_us", json_parse.median(), "us",
          json_parse.size());
  out.add("serve.parse_request_us", parse_request.median(), "us",
          parse_request.size());
  out.add("graph.parse_hash_us", parse_hash.median(), "us",
          parse_hash.size());
  out.add("serve.cache_lookup_us", lookup.median(), "us", lookup.size());
  out.add("serve.cache_hit_ratio", ratio(hit_delta, req_delta), "fraction",
          req_delta);
  out.add("serve.envelope_us", envelope.median(), "us", envelope.size());
  out.add("trace.record_us", record.median(), "us", record.size());
  out.add("trace.spans_held",
          ratio(spans.find("spans")->size(),
                counter(after, "requests", "total")),
          "count", counter(after, "requests", "total"));
  out.add("support.metrics_observe_us", observe.median(), "us",
          observe.size());
}

// ---- serve-cold layers ---------------------------------------------------

void replay_serve_cold(const Options& o, const Tracer& t, RunResult& out) {
  const auto g0 = Clock::now();
  const auto group = t.new_id();
  const long time_wait = tcp_time_wait();
  constexpr std::size_t kDesigns = 8;
  // A default-knob screen runs with the daemon's default options.
  const serve::ServerOptions defaults;
  const auto designs = cold_designs(o.seed, kDesigns);

  // Through the daemon: connect per request, every request a miss.  Its
  // own serve.execute spans time each screen from inside.
  Child daemon({o.lidtool, "serve", "--port", "0", "--threads", "2"});
  const std::uint16_t port = read_port(daemon);
  std::vector<std::string> results(kDesigns);
  for (std::size_t k = 0; k < kDesigns; ++k) {
    const auto a = Clock::now();
    const std::string resp = call_once(port, cold_request(designs[k]));
    t.span("serve.rtt", a, Clock::now(), group);
    std::string why;
    if (!cold_response_ok(resp, designs[k].topo, &why)) {
      out.fail(designs[k].name + ": " + why);
    }
    results[k] = result_bytes(resp);
  }
  out.attempted += kDesigns;
  const long threads = daemon.threads();
  const Json st = ok_result(call_once(port, kStatus));
  const auto daemon_spans = liplib::trace::spans_from_json(
      ok_result(call_once(port, R"({"rpc":"liplib.rpc/1","kind":"trace"})")));
  const auto misses = counter(st, "cache", "misses");
  const auto hits = counter(st, "cache", "hits");
  shutdown_daemon(daemon, port);
  if (misses != kDesigns || hits != 0) {
    out.fail("serve-cold replay: not every screen missed");
  }
  std::map<std::uint64_t, std::string> span_name;
  for (const auto& s : daemon_spans) span_name[s.span_id] = s.name;
  Samples execute_ms;
  for (const auto& s : daemon_spans) {
    if (s.name == "serve.execute" &&
        span_name[s.parent_span] == "serve.screen") {
      execute_ms.add(static_cast<double>(s.dur_us) / 1000.0);
    }
  }
  if (execute_ms.size() != kDesigns) {
    out.fail("the daemon's trace holds " + std::to_string(execute_ms.size()) +
             " screen executions, not " + std::to_string(kDesigns));
  }

  // In-process, one layer at a time: the daemon's screen is a watchdog
  // guard over the whole budget, then a fresh skeleton analysis for the
  // exact steady state, from reset and from worst-case occupancy.
  Samples guard_ms, guard_cycles, analyze_ms, analyze_cycles, parse_hash,
      insert, replica_ms;
  double guard_sum = 0, analyze_sum = 0;
  serve::ServeContext ctx(defaults);
  for (std::size_t k = 0; k < kDesigns; ++k) {
    const Design& d = designs[k];
    const auto a = Clock::now();
    const auto op = t.new_id(group);
    const std::string payload = cold_request(d);
    parse_hash.add(
        timed(t, "graph.parse_hash", op, [&] { content_hash(d.text); }));
    double g_us = 0, a_us = 0;
    std::uint64_t g_cycles = 0, a_cycles = 0;
    for (const bool worst : {false, true}) {
      g_us += timed(t, "telemetry.guard", op, [&] {
        liplib::telemetry::WatchdogOptions wopts;
        wopts.no_progress_threshold = defaults.watchdog_threshold;
        wopts.worst_case_occupancy = worst;
        liplib::telemetry::Watchdog dog(wopts);
        liplib::skeleton::Skeleton guard(d.topo, {});
        if (worst) guard.saturate_stations();
        dog.attach(guard);
        g_cycles += liplib::telemetry::run_guarded(guard, dog,
                                                   defaults.default_budget)
                        .cycles;
        if (dog.tripped()) out.fail(d.name + ": watchdog tripped");
      });
      a_us += timed(t, "skeleton.analyze", op, [&] {
        liplib::skeleton::Skeleton sk(d.topo, {});
        if (worst) sk.saturate_stations();
        const auto r = sk.analyze(defaults.default_budget);
        a_cycles += r.transient + r.period;
        if (!r.found) out.fail(d.name + ": no steady state in the budget");
      });
    }
    guard_ms.add(g_us / 1000.0);
    analyze_ms.add(a_us / 1000.0);
    replica_ms.add((g_us + a_us) / 1000.0);
    guard_cycles.add(static_cast<double>(g_cycles));
    analyze_cycles.add(static_cast<double>(a_cycles));
    guard_sum += static_cast<double>(g_cycles);
    analyze_sum += static_cast<double>(a_cycles);
    const std::string key =
        cache_key(serve::parse_request(Json::parse(payload)), defaults);
    insert.add(timed(t, "serve.cache_insert", op,
                     [&] { ctx.cache.insert(key, results[k]); }));
    // The daemon's handler must now answer from the entry just inserted.
    const std::string again = serve::handle_payload(payload, ctx);
    if (again.find("\"cached\":true") == std::string::npos ||
        result_bytes(again) != results[k]) {
      out.fail(d.name + ": the replay's cache key misses the daemon's cache");
    }
    t.span("screen.request", a, Clock::now(), group, {{"design", d.name}},
           op);
  }
  out.attempted += kDesigns;

  // The replica must still be the daemon's screen: a change to the
  // daemon's guard or analysis that the replica does not copy shows as
  // a gap between the two times.
  const double gap = execute_ms.median() > 0
                         ? replica_ms.median() / execute_ms.median()
                         : 0;
  std::cout << "serve-cold replay: in-process guard + analyze "
            << fmt_double(replica_ms.median()) << " ms, daemon execute "
            << fmt_double(execute_ms.median()) << " ms (median of "
            << kDesigns << ")\n";
  if (gap < 0.5 || gap > 2) {
    out.fail("the in-process screen replica and the daemon's serve.execute "
             "differ by more than 2x; the replica no longer matches the "
             "daemon's screen");
  }

  t.span("replay.serve_cold", g0, Clock::now(), 0, {}, group);
  out.add("serve.execute_ms", execute_ms.median(), "ms", execute_ms.size());
  out.add("telemetry.guard_ms", guard_ms.median(), "ms", guard_ms.size());
  out.add("telemetry.guard_cycles", guard_cycles.median(), "cycles",
          guard_cycles.size());
  out.add("skeleton.analyze_ms", analyze_ms.median(), "ms",
          analyze_ms.size());
  out.add("skeleton.analyze_cycles", analyze_cycles.median(), "cycles",
          analyze_cycles.size());
  out.add("screen.useful_cycle_ratio",
          guard_sum > 0 ? analyze_sum / guard_sum : 0, "fraction",
          guard_cycles.size());
  out.add("graph.parse_hash_cold_us", parse_hash.median(), "us",
          parse_hash.size());
  out.add("serve.cache_insert_us", insert.median(), "us", insert.size());
  out.add("serve.cache_miss_ratio", ratio(misses, misses + hits), "fraction",
          misses + hits);
  out.add("serve.daemon_threads", static_cast<double>(threads), "count");
  out.add("host.tcp_time_wait", static_cast<double>(time_wait), "count");
}

// ---- verify layers (the dropped verify-scale workload's corpus) -------

void replay_verify(const Options& o, const Tracer& t, RunResult& out) {
  const auto g0 = Clock::now();
  const auto group = t.new_id();
  const auto corpus = verify_corpus(o.seed, 2);
  double parse = 0, lint = 0, lower = 0, screen = 0, prove_ms = 0;
  double screen_cycles = 0, states = 0, screen_rss = 0, prove_rss = 0;
  std::map<std::string, int> methods;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& d = corpus[i];
    const auto d0 = Clock::now();
    const auto op = t.new_id(group);
    liplib::graph::Topology topo;
    bool lint_deadlock = false;
    liplib::skeleton::ScreeningVerdict reset, worst;
    const double p = timed(t, "graph.parse", op, [&] {
      topo = liplib::graph::parse_netlist_string(d.text);
    });
    const double l = timed(t, "lint.run", op, [&] {
      lint_deadlock = liplib::lint::run_lint(topo).has_rule("LIP006");
    });
    const double w =
        timed(t, "xir.lower", op, [&] { liplib::xir::lower(topo); });
    const double base = reset_peak_rss();
    const double s = timed(t, "xir.screen", op, [&] {
      reset = liplib::xir::screen_for_deadlock(topo);
      liplib::skeleton::ScreeningOptions so;
      so.worst_case_occupancy = true;
      worst = liplib::xir::screen_for_deadlock(topo, so);
    });
    const double s_rss = self_vm_mb("VmHWM:") - base;
    const auto cycles = reset.cycles_simulated + worst.cycles_simulated;
    parse += p;
    lint += l;
    lower += w;
    screen += s;
    screen_cycles += static_cast<double>(cycles);
    screen_rss = std::max(screen_rss, s_rss);
    std::cout << "  " << d.name << ": parse " << fmt_double(p / 1000)
              << " ms, lint " << fmt_double(l / 1000) << " ms, lower "
              << fmt_double(w / 1000) << " ms, screen "
              << fmt_double(s / 1000) << " ms / " << cycles << " cycles / "
              << fmt_double(s_rss) << " MB";
    std::string why;
    if (lint_deadlock || reset.deadlock_found || worst.deadlock_found) {
      why = "lint or screen reports a deadlock";
    }
    if (i < kVerifyChains) {
      const std::string label = i == 0 ? "half_chain_2.5k" : "half_chain_5k";
      out.add("xir.screen_ms." + label, s / 1000, "ms");
      out.add("xir.screen_rss_mb." + label, s_rss, "MB");
      const auto analytic = liplib::graph::predict_throughput(topo).system();
      if (reset.min_throughput != analytic) {
        why = "throughput differs from the analytic value";
      }
    } else {
      liplib::prove::ProveResult pr;
      const double pb = reset_peak_rss();
      const double pm = timed(t, "prove.prove", op,
                              [&] { pr = liplib::prove::prove(topo); });
      const double p_rss = self_vm_mb("VmHWM:") - pb;
      const char* method = liplib::prove::method_name(pr.method_used);
      prove_ms += pm;
      states += static_cast<double>(pr.states_explored);
      prove_rss = std::max(prove_rss, p_rss);
      ++methods[method];
      std::cout << ", prove " << fmt_double(pm / 1000) << " ms / "
                << pr.states_explored << " states / " << method << " / "
                << fmt_double(p_rss) << " MB";
      if (pr.verdict != liplib::prove::Verdict::kProved) {
        why = "prove did not prove liveness";
      }
    }
    std::cout << "\n";
    out.attempted += 1;
    if (!why.empty()) out.fail(d.name + ": " + why);
    t.span("verify.design", d0, Clock::now(), group, {{"design", d.name}},
           op);
  }

  t.span("replay.verify_scale", g0, Clock::now(), 0, {}, group);
  const std::size_t n = corpus.size();
  const std::size_t proofs = n - kVerifyChains;
  out.add("graph.parse_ms", parse / 1000, "ms", n);
  out.add("lint.run_ms", lint / 1000, "ms", n);
  out.add("xir.lower_ms", lower / 1000, "ms", n);
  out.add("xir.screen_ms", screen / 1000, "ms", n);
  out.add("xir.screen_cycles", screen_cycles, "cycles", n);
  out.add("xir.screen_rss_mb", screen_rss, "MB", n);
  out.add("prove.ms", prove_ms / 1000, "ms", proofs);
  out.add("prove.states_explored", states, "count", proofs);
  out.add("prove.decided_by_reach", methods["reach"], "count", proofs);
  out.add("prove.decided_by_induction", methods["induction"], "count",
          proofs);
  out.add("prove.rss_mb", prove_rss, "MB", proofs);
}

// ---- dist-sweep layers ---------------------------------------------------

void replay_dist(const Options& o, const Tracer& t, RunResult& out) {
  namespace dist = liplib::dist;
  namespace campaign = liplib::campaign;
  const auto g0 = Clock::now();
  const auto group = t.new_id();
  const std::size_t jobs = size_for(o.seconds).dist_jobs;
  const std::string merged_path = o.workdir + "/replay_dist_merged.json";
  Child coord({o.lidtool, "dist", "coordinate", "fuzz", std::to_string(jobs),
               "--shards", "8", "--seed", std::to_string(o.seed), "--json",
               merged_path});
  const std::uint16_t port = read_port(coord);

  // The benchmark is the only worker: it speaks liplib.dist/1 itself.
  const std::string lease_req = R"({"rpc":"liplib.dist/1","msg":"lease"})";
  Samples lease_rtt, run_ms;
  double aggregate_ms = 0, export_ms = 0, wait_ms = 0, partial_bytes = 0;
  std::size_t jobs_run = 0;
  std::vector<std::string> partials;
  for (;;) {
    std::string raw;
    const auto a = Clock::now();
    try {
      raw = call_once(port, lease_req);
    } catch (const std::exception&) {
      break;  // the coordinator exits once the last shard merged
    }
    const auto b = Clock::now();
    lease_rtt.add(us_between(a, b));
    t.span("dist.lease", a, b, group);
    const Json msg = Json::parse(raw);
    const std::string kind = msg.find("msg")->as_string();
    if (kind == "done") break;
    if (kind == "wait") {
      const auto w0 = Clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      wait_ms += us_between(w0, Clock::now()) / 1000;
      continue;
    }
    const auto m = dist::manifest_from_json(*msg.find("manifest"));
    const auto op = t.new_id(group);
    std::vector<campaign::Job> slice;
    std::vector<campaign::JobResult> results;
    campaign::Aggregate agg;
    std::string text;
    timed(t, "campaign.build", op, [&] {
      const auto all = campaign::make_named_campaign(
          dist::named_campaign_from_string(m.campaign));
      slice.assign(all.begin() + static_cast<long>(m.shard.lo),
                   all.begin() + static_cast<long>(m.shard.hi));
    });
    run_ms.add(timed(t, "campaign.run", op, [&] {
                 campaign::EngineOptions eopts;
                 eopts.threads = 1;
                 eopts.base_seed = m.base_seed;
                 eopts.cycle_budget = m.cycle_budget;
                 eopts.index_base = m.shard.lo;
                 results = campaign::Engine(eopts).run(slice);
               }) /
               1000);
    jobs_run += results.size();
    aggregate_ms += timed(t, "campaign.aggregate", op,
                          [&] { agg = campaign::aggregate(results); }) /
                    1000;
    export_ms += timed(t, "dist.export", op, [&] {
                   text = dist::partial_to_json(m, agg).dump();
                 }) /
                 1000;
    partial_bytes += static_cast<double>(text.size());
    const auto s0 = Clock::now();
    const Json ack = Json::parse(call_once(
        port, R"({"rpc":"liplib.dist/1","msg":"result","partial":)" + text +
                  "}"));
    t.span("dist.submit", s0, Clock::now(), op);
    const Json* accepted = ack.find("accepted");
    if (!accepted || !accepted->is_bool() || !accepted->as_bool()) {
      out.fail("partial rejected");
    }
    partials.push_back(std::move(text));
    t.span("dist.shard", b, Clock::now(), group,
           {{"shard", std::to_string(m.shard.index)}}, op);
  }
  std::string report;
  if (coord.wait(nullptr, &report) != 0) out.fail("coordinator exit", jobs);
  // "campaign done: 8/8 shards, L lease(s), R re-dispatch(es), D
  // duplicate(s), ..."
  auto count_of = [&](const char* what) {
    const auto p = report.find(what);
    if (p == std::string::npos) return -1.0;
    return std::atof(report.c_str() + report.rfind(", ", p) + 2);
  };
  const double leases = count_of(" lease(s)");
  const double redispatches = count_of(" re-dispatch(es)");
  const double duplicates = count_of(" duplicate(s)");

  std::vector<dist::Partial> parts;
  campaign::Aggregate merged;
  const double import_ms = timed(t, "dist.import", group, [&] {
                             for (const auto& p : partials) {
                               parts.push_back(
                                   dist::partial_from_json(Json::parse(p)));
                             }
                           }) /
                           1000;
  const double merge_ms = timed(t, "dist.merge", group, [&] {
                            merged = dist::merge_partials(std::move(parts));
                          }) /
                          1000;
  out.attempted += jobs;
  std::ifstream in(merged_path);
  const std::string coordinator_doc((std::istreambuf_iterator<char>(in)),
                                    {});
  if (campaign::to_json(merged).dump(2) + "\n" != coordinator_doc ||
      !merged.all_live()) {
    out.fail("replayed merge differs from the coordinator's aggregate", jobs);
  }
  if (redispatches != 0 || duplicates != 0) {
    out.fail("re-dispatch or duplicate in a clean run");
  }

  t.span("replay.dist_sweep", g0, Clock::now(), 0, {}, group);
  const std::size_t shards = run_ms.size();
  out.add("campaign.run_ms", run_ms.median(), "ms", shards);
  out.add("campaign.jobs", static_cast<double>(jobs_run), "count");
  out.add("campaign.aggregate_ms", aggregate_ms, "ms", shards);
  out.add("dist.export_ms", export_ms, "ms", shards);
  out.add("dist.partial_bytes", partial_bytes, "bytes", shards);
  out.add("dist.import_ms", import_ms, "ms", shards);
  out.add("dist.merge_ms", merge_ms, "ms", shards);
  out.add("dist.lease_rtt_us", lease_rtt.median(), "us", lease_rtt.size());
  out.add("dist.worker_wait_ms", wait_ms, "ms");
  out.add("dist.leases_issued", leases, "count");
  out.add("dist.redispatches", redispatches, "count");
  out.add("dist.duplicates", duplicates, "count");
  out.add("dist.shard_skew",
          run_ms.median() > 0 ? run_ms.max() / run_ms.median() : 0, "ratio",
          shards);
}

/// Per-layer self time: a span's duration minus its children's.
void print_layers(const std::vector<liplib::trace::Span>& spans) {
  std::map<std::uint64_t, std::uint64_t> child_us;
  for (const auto& s : spans) child_us[s.parent_span] += s.dur_us;
  struct Row {
    std::size_t spans = 0;
    std::uint64_t total = 0, self = 0;
  };
  std::map<std::string, Row> layers;
  for (const auto& s : spans) {
    Row& r = layers[s.name.substr(0, s.name.find('.'))];
    const auto it = child_us.find(s.span_id);
    const std::uint64_t c = it == child_us.end() ? 0 : it->second;
    ++r.spans;
    r.total += s.dur_us;
    r.self += s.dur_us > c ? s.dur_us - c : 0;
  }
  std::cout << "\nlayer self time (traced run):\n";
  for (const auto& [name, r] : layers) {
    std::cout << "  " << name;
    for (std::size_t i = name.size(); i < 12; ++i) std::cout << ' ';
    std::cout << r.spans << " spans, total "
              << fmt_double(static_cast<double>(r.total) / 1000)
              << " ms, self " << fmt_double(static_cast<double>(r.self) / 1000)
              << " ms\n";
  }
}

RunResult run_workload(const Options& o, const Size& s, const Tracer& t) {
  if (o.workload == "serve-hot") return run_serve_hot(o, s, t);
  if (o.workload == "serve-cold") return run_serve_cold(o, s, t);
  if (o.workload == "dist-sweep") return run_dist_sweep(o, s, t);
  throw std::runtime_error("unknown workload '" + o.workload + "'");
}

}  // namespace

RunResult run_traced(const Options& o) {
  liplib::trace::Recorder rec;
  Tracer root;
  root.rec = &rec;
  root.trace_id =
      liplib::trace::derive_trace_id(serve::fnv1a64(o.workload) ^ o.seed);
  const auto t0 = Clock::now();
  const auto root_id = root.new_id();
  Tracer t = root;
  t.parent = root_id;

  // Tracing overhead: the same half-size workload untraced, then traced.
  const Size half = size_for(std::max(1u, o.seconds / 2));
  std::cout << "== " << o.workload << " untraced (half size)\n";
  const RunResult plain = run_workload(o, half, Tracer{});
  std::cout << "== " << o.workload << " traced (half size)\n";
  Tracer wt = t;
  wt.parent = t.new_id();
  const auto w0 = Clock::now();
  const RunResult traced = run_workload(o, half, wt);
  t.span("perfbench." + o.workload, w0, Clock::now(), 0, {}, wt.parent);
  RunResult out;
  for (const RunResult* r : {&plain, &traced}) {
    out.attempted += r->attempted;
    out.failed += r->failed;
    for (const auto& f : r->failures) out.fail(f, 0);
  }
  std::cout << "\nend-to-end, untraced vs traced:\n";
  for (const auto& m : plain.metrics) {
    const Metric* tm = traced.find(m.name);
    if (!tm) continue;
    std::cout << "  " << m.name << ": " << fmt_double(m.value) << " vs "
              << fmt_double(tm->value) << " " << m.unit
              << " (traced - untraced = " << fmt_double(tm->value - m.value)
              << ")\n";
  }
  const Metric* a = plain.find("throughput_ops");
  const Metric* b = traced.find("throughput_ops");
  out.add("trace.overhead_pct",
          a && b && a->value > 0 ? (a->value - b->value) / a->value * 100 : 0,
          "%", 2);

  std::cout << "\n== per-layer replay\n";
  replay_serve_hot(o, t, out);
  replay_serve_cold(o, t, out);
  replay_verify(o, t, out);
  replay_dist(o, t, out);
  root.span("perfbench.traced_run", t0, Clock::now(), 0, {}, root_id);

  // The span document must pass the repo's own integrity check.
  const auto spans = rec.snapshot();
  const std::string path = o.workdir + "/trace_" + o.workload + ".json";
  {
    std::ofstream os(path);
    os << liplib::trace::spans_to_json(spans).dump() << "\n";
  }
  Child check({o.lidtool, "trace", path, "--check"});
  out.attempted += 1;
  if (check.wait() != 0) out.fail("span document fails lidtool trace --check");
  print_layers(spans);
  std::cout << "span document: " << path << " (" << spans.size()
            << " spans)\n";
  return out;
}

}  // namespace perfbench
