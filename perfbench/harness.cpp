// perfbench: the in-process half of the liplib benchmark (run.py builds
// it and forwards its last output line).
//
//   perfbench <workload> --seed N --seconds S --trace 0|1
//             --lidtool PATH --workdir DIR
//   perfbench selftest
//
// Workloads: serve-hot, serve-cold, dist-sweep.  With
// --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics of the traced replay.  Exit 0 with a
// result line, or non-zero without one when the run could not finish.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/serve/protocol.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench <serve-hot|serve-cold|dist-sweep>\n"
               "           --seed N --seconds S --trace 0|1 "
               "--lidtool PATH --workdir DIR\n"
               "       perfbench selftest\n";
  return 2;
}

/// A loopback frame server on its own thread: it answers the requests
/// of one connection with `answers`, in order, then closes.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::vector<std::string> answers)
      : answers_(std::move(answers)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      throw std::runtime_error("selftest: cannot listen on loopback");
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      std::string request;
      for (const auto& a : answers_) {
        if (fd < 0 || !liplib::serve::read_frame(fd, request)) break;
        liplib::serve::write_frame(fd, a);
      }
      if (fd >= 0) ::close(fd);
    });
  }
  ~ScriptedServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  std::uint16_t port() const { return port_; }

 private:
  std::vector<std::string> answers_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// The oracles, the failure counting and the percentile guard must
/// reject what they exist to reject: a corrupted response met during a
/// run counts as a failure.
int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++bad;
  };

  // serve-hot: a client lane against a server that flips one byte of
  // its second answer and closes before the fourth.
  const std::string hit =
      R"({"rpc":"liplib.rpc/1","id":null,"kind":"lint","ok":true,)"
      R"("cached":true,"result":{"verdict":"clean"}})";
  std::string flipped = hit;
  flipped[flipped.size() - 4] ^= 1;
  expect(result_bytes(hit) == R"({"verdict":"clean"})",
         "serve-hot: the result bytes are cut from the envelope");
  {
    HotLane lane;
    {
      ScriptedServer server({hit, flipped, hit});
      drive_hot_lane(lane, server.port(), {"lint"}, {hit}, 4, 1, nullptr,
                     Tracer{});
    }
    RunResult r;
    r.attempted = 4;
    const std::size_t done = tally_hot_lanes(r, {lane}, 4);
    expect(lane.bad == 1 && done == 3,
           "serve-hot: the lane counts the flipped answer as bad");
    expect(r.failed == 2,
           "serve-hot: the flipped answer and the unanswered request fail");
  }

  // Fig. 1: T = 4/5 from reset, 1 from worst-case occupancy.
  const auto topo = liplib::graph::make_fig1().topo;
  auto screen = [](const std::string& reset, const std::string& verdict) {
    return R"({"rpc":"liplib.rpc/1","id":null,"kind":"screen","ok":true,)"
           R"("cached":false,"result":{"verdict":")" +
           verdict + R"(","from_reset":{"throughput":")" + reset +
           R"("},"worst_case":{"throughput":"1"}}})";
  };
  std::string why;
  expect(cold_response_ok(screen("4/5", "live"), topo, &why),
         "serve-cold: the true verdict passes");
  expect(!cold_response_ok(screen("1", "live"), topo, &why),
         "serve-cold: a wrong throughput fails");
  expect(!cold_response_ok(screen("4/5", "deadlock"), topo, &why),
         "serve-cold: a wrong verdict fails");
  expect(!cold_response_ok(R"({"rpc":"liplib.rpc/1","ok":false,"error":"x"})",
                           topo, &why),
         "serve-cold: a refused request fails");
  expect(!cold_response_ok("{\"rpc\":", topo, &why),
         "serve-cold: a garbled frame fails");

  {
    RunResult r;
    check_aggregates(r, {"{\"a\": 1}\n", "{\"a\": 2}\n", ""},
                     "{\"a\": 1}\n", 500);
    expect(r.failed == 500,
           "dist-sweep: only the altered aggregate fails, with its jobs");
  }

  Samples s;
  for (int i = 1; i <= 99; ++i) s.add(i);
  expect(!s.percentile(90), "percentile guard: p90 of 99 samples withheld");
  s.add(100);
  expect(s.percentile(90) && *s.percentile(90) == 90,
         "percentile guard: p90 of 100 samples");
  expect(!s.percentile(99), "percentile guard: p99 of 100 samples withheld");
  RunResult r;
  r.attempted = 1;
  r.add_percentile("latency_p99_ms", s, 99);
  expect(r.failed == 1 && r.report.empty(),
         "percentile guard: a withheld percentile fails the run");
  expect(s.median() == 50.5, "median of 1..100");

  std::cout << (bad ? "selftest FAILED\n" : "selftest passed\n");
  return bad ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "selftest") return selftest();
  if (argc < 2) return usage();
  Options o;
  o.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      o.seed = std::stoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<unsigned>(std::stoul(value));
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--lidtool") {
      o.lidtool = value;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else {
      return usage();
    }
  }
  if (o.lidtool.empty() || o.workdir.empty() || o.seconds == 0) {
    return usage();
  }
  try {
    std::filesystem::create_directories(o.workdir);
    RunResult r;
    const Size s = size_for(o.seconds);
    const Tracer off;
    if (o.trace) {
      r = run_traced(o);
    } else if (o.workload == "serve-hot") {
      r = run_serve_hot(o, s, off);
    } else if (o.workload == "serve-cold") {
      r = run_serve_cold(o, s, off);
    } else if (o.workload == "dist-sweep") {
      r = run_dist_sweep(o, s, off);
    } else {
      return usage();
    }
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
