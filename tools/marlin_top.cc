// marlin_top — live cluster monitor for a telemetry-enabled realnet run.
//
// Polls every replica's GET /status and GET /metrics endpoints (serve them
// with `marlin_run --telemetry-port=BASE`) and renders a refreshing
// cluster table: view, committed height, tx-pool depth, commit rate,
// per-kind wire traffic, egress queue depth, and reconnect counters.
//
//   marlin_run --f=1 --telemetry-port=9100 --seconds=60 &
//   marlin_top --base-port=9100 --n=4
//   marlin_top --endpoints=127.0.0.1:9100,127.0.0.1:9101 --once --json
//
// --once polls a single round and exits (non-zero when any endpoint is
// unreachable); --json switches that single round to a machine-readable
// JSON document for scripts and CI.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "common/json.h"
#include "realnet/http_client.h"

using namespace marlin;

namespace {

struct Options {
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;
  std::uint16_t base_port = 0;  // with --n: 127.0.0.1:base+i
  std::uint32_t n = 4;
  double interval = 1.0;
  bool once = false;
  bool json = false;
  bool help = false;
};

void usage() {
  std::printf(
      "marlin_top — live monitor for marlin_run --telemetry clusters\n\n"
      "  --endpoints=H:P,...  telemetry endpoints to poll (host optional,\n"
      "                       ':9100' and '9100' mean 127.0.0.1:9100)\n"
      "  --base-port=P        shorthand: poll 127.0.0.1:P+i for i in 0..n-1\n"
      "  --n=N                replica count for --base-port (default 4)\n"
      "  --interval=S         refresh period in seconds (default 1)\n"
      "  --once               poll one round, print, exit (no refresh);\n"
      "                       exits 1 when any endpoint is unreachable\n"
      "  --json               with --once: emit a JSON document instead of\n"
      "                       the table\n");
}

bool parse_endpoint(const std::string& spec,
                    std::pair<std::string, std::uint16_t>* out) {
  std::string host = "127.0.0.1";
  std::string port = spec;
  if (const std::size_t colon = spec.rfind(':'); colon != std::string::npos) {
    if (colon > 0) host = spec.substr(0, colon);
    port = spec.substr(colon + 1);
  }
  const int p = std::atoi(port.c_str());
  if (p <= 0 || p > 65535) {
    std::fprintf(stderr, "bad endpoint '%s' (want [host:]port)\n",
                 spec.c_str());
    return false;
  }
  *out = {host, static_cast<std::uint16_t>(p)};
  return true;
}

bool parse_options(int argc, char** argv, Options* opt) {
  cli::ArgCursor args(argc, argv);
  while (args.next()) {
    std::string v;
    if (args.flag("--help")) {
      opt->help = true;
    } else if (args.str("--endpoints", &v)) {
      std::size_t pos = 0;
      while (pos <= v.size()) {
        const std::size_t comma = v.find(',', pos);
        const std::string one =
            v.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!one.empty()) {
          std::pair<std::string, std::uint16_t> ep;
          if (!parse_endpoint(one, &ep)) return false;
          opt->endpoints.push_back(std::move(ep));
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (args.u16("--base-port", &opt->base_port)) {
    } else if (args.u32("--n", &opt->n)) {
    } else if (args.f64("--interval", &opt->interval)) {
    } else if (args.flag("--once")) {
      opt->once = true;
    } else if (args.flag("--json")) {
      opt->json = true;
    } else {
      args.fail_unknown();
    }
  }
  if (!args.ok()) return false;
  if (opt->base_port != 0) {
    for (std::uint32_t i = 0; i < opt->n; ++i) {
      opt->endpoints.emplace_back(
          "127.0.0.1", static_cast<std::uint16_t>(opt->base_port + i));
    }
  }
  if (opt->endpoints.empty() && !opt->help) {
    std::fprintf(stderr, "no endpoints (use --endpoints or --base-port)\n");
    return false;
  }
  return true;
}

/// Minimal Prometheus text-exposition reader: one value per
/// `name{labels}` series, comments and TYPE lines skipped.
std::map<std::string, double> parse_prometheus(const std::string& body) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) continue;
    out[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  return out;
}

double series_value(const std::map<std::string, double>& m,
                    const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// Sums every series of `name` whose label set matches `label_prefix`
/// (e.g. all kind= splits of a counter family).
double series_sum(const std::map<std::string, double>& m,
                  const std::string& name_and_brace) {
  double total = 0;
  for (auto it = m.lower_bound(name_and_brace); it != m.end(); ++it) {
    if (it->first.compare(0, name_and_brace.size(), name_and_brace) != 0) {
      break;
    }
    total += it->second;
  }
  return total;
}

struct NodePoll {
  bool reachable = false;
  bool healthy = false;
  // From /status.
  std::uint64_t node = 0;
  std::uint64_t view = 0;
  std::uint64_t height = 0;
  std::uint64_t committed_ops = 0;
  std::uint64_t txpool = 0;
  std::uint64_t queued_bytes = 0;
  std::string status_body;
  // From /metrics.
  double bytes_sent = 0;
  double redials = 0;
  double drops = 0;
  double q_high_water = 0;
  // Hot-path shape: egress coalescing + batched ingress.
  double frames_per_flush = 0;  // mean, from the summary's _sum/_count
  double frames_per_wake = 0;
  std::map<std::string, double> kind_bytes_sent;  // kind -> bytes
};

/// Mean of a Prometheus summary family: _sum / _count (0 when absent).
double series_mean(const std::map<std::string, double>& m,
                   const std::string& family) {
  const double count = series_value(m, family + "_count");
  if (count <= 0) return 0;
  return series_value(m, family + "_sum") / count;
}

NodePoll poll_node(const std::string& host, std::uint16_t port) {
  NodePoll p;
  const Duration timeout = Duration::millis(500);
  auto status = realnet::http_get(host, port, "/status", timeout);
  auto metrics = realnet::http_get(host, port, "/metrics", timeout);
  if (!status.is_ok() || status.value().status_code != 200 ||
      !metrics.is_ok() || metrics.value().status_code != 200) {
    return p;
  }
  auto doc = json::parse(status.value().body);
  const json::Object* obj = doc.is_ok() ? doc.value().object() : nullptr;
  if (obj == nullptr) return p;
  p.reachable = true;
  p.status_body = status.value().body;
  p.healthy = json::get_bool(*obj, "healthy", false);
  p.node = static_cast<std::uint64_t>(json::get_num(*obj, "node", 0));
  p.view = static_cast<std::uint64_t>(json::get_num(*obj, "view", 0));
  p.height =
      static_cast<std::uint64_t>(json::get_num(*obj, "committed_height", 0));
  p.committed_ops =
      static_cast<std::uint64_t>(json::get_num(*obj, "committed_ops", 0));
  p.txpool = static_cast<std::uint64_t>(json::get_num(*obj, "txpool", 0));
  p.queued_bytes =
      static_cast<std::uint64_t>(json::get_num(*obj, "queued_bytes", 0));

  const auto m = parse_prometheus(metrics.value().body);
  p.bytes_sent = series_sum(m, "marlin_net_bytes_sent{node=");
  p.redials = series_value(m, "marlin_transport_redials_scheduled");
  p.drops = series_sum(m, "marlin_transport_frames_dropped{");
  p.q_high_water =
      series_value(m, "marlin_transport_egress_high_water_bytes");
  p.frames_per_flush = series_mean(m, "marlin_transport_frames_per_flush");
  p.frames_per_wake = series_mean(m, "marlin_loop_frames_per_wake");
  // kind-split egress: marlin_net_bytes_sent{kind="proposal"} ...
  const std::string prefix = "marlin_net_bytes_sent{kind=\"";
  for (auto it = m.lower_bound(prefix); it != m.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    const std::size_t end = it->first.find('"', prefix.size());
    if (end == std::string::npos) continue;
    p.kind_bytes_sent[it->first.substr(prefix.size(), end - prefix.size())] =
        it->second;
  }
  return p;
}

void print_table(const Options& opt, const std::vector<NodePoll>& polls,
                 const std::vector<NodePoll>& prev, double dt,
                 bool clear_screen) {
  if (clear_screen) std::printf("\033[H\033[2J");
  std::uint32_t reachable = 0;
  for (const NodePoll& p : polls) reachable += p.reachable ? 1 : 0;
  std::printf("marlin_top — %u/%zu replicas answering\n", reachable,
              polls.size());
  std::printf("%-18s %-7s %7s %9s %7s %9s %10s %10s %8s %7s %6s %6s\n",
              "endpoint", "health", "view", "height", "txpool", "ops/s",
              "sent MB/s", "q_bytes", "q_hw", "redials", "fr/fl", "fr/wk");
  std::map<std::string, double> kinds;
  for (std::size_t i = 0; i < polls.size(); ++i) {
    char ep[64];
    std::snprintf(ep, sizeof ep, "%s:%u", opt.endpoints[i].first.c_str(),
                  opt.endpoints[i].second);
    const NodePoll& p = polls[i];
    if (!p.reachable) {
      std::printf("%-18s %-7s\n", ep, "DOWN");
      continue;
    }
    double ops_rate = 0, mb_rate = 0;
    if (dt > 0 && i < prev.size() && prev[i].reachable) {
      // Signed difference: a relaunched replica restarts its counters.
      ops_rate = (static_cast<double>(p.committed_ops) -
                  static_cast<double>(prev[i].committed_ops)) /
                 dt;
      mb_rate = (p.bytes_sent - prev[i].bytes_sent) / 1e6 / dt;
    }
    std::printf("%-18s %-7s %7llu %9llu %7llu %9.0f %10.2f %10llu %8.0f "
                "%7.0f %6.1f %6.1f\n",
                ep, p.healthy ? "ok" : "stall",
                static_cast<unsigned long long>(p.view),
                static_cast<unsigned long long>(p.height),
                static_cast<unsigned long long>(p.txpool), ops_rate, mb_rate,
                static_cast<unsigned long long>(p.queued_bytes),
                p.q_high_water, p.redials, p.frames_per_flush,
                p.frames_per_wake);
    for (const auto& [kind, bytes] : p.kind_bytes_sent) {
      kinds[kind] += bytes;
    }
  }
  std::printf("traffic by kind (MB sent):");
  for (const auto& [kind, bytes] : kinds) {
    std::printf(" %s %.2f", kind.c_str(), bytes / 1e6);
  }
  std::printf("\n");
  std::fflush(stdout);
}

void print_json(const Options& opt, const std::vector<NodePoll>& polls) {
  std::string out = "{\"nodes\":[";
  for (std::size_t i = 0; i < polls.size(); ++i) {
    const NodePoll& p = polls[i];
    if (i > 0) out += ",";
    out += "{\"endpoint\":\"" + opt.endpoints[i].first + ":" +
           std::to_string(opt.endpoints[i].second) + "\"";
    out += std::string(",\"reachable\":") + (p.reachable ? "true" : "false");
    if (p.reachable) {
      out += ",\"status\":" + p.status_body;
      char num[64];
      std::snprintf(num, sizeof num, "%.0f", p.bytes_sent);
      out += ",\"bytes_sent\":" + std::string(num);
      std::snprintf(num, sizeof num, "%.0f", p.redials);
      out += ",\"redials\":" + std::string(num);
      std::snprintf(num, sizeof num, "%.0f", p.drops);
      out += ",\"dropped_frames\":" + std::string(num);
      std::snprintf(num, sizeof num, "%.2f", p.frames_per_flush);
      out += ",\"frames_per_flush\":" + std::string(num);
      std::snprintf(num, sizeof num, "%.2f", p.frames_per_wake);
      out += ",\"frames_per_wake\":" + std::string(num);
      out += ",\"bytes_sent_by_kind\":{";
      bool first = true;
      for (const auto& [kind, bytes] : p.kind_bytes_sent) {
        if (!first) out += ",";
        first = false;
        std::snprintf(num, sizeof num, "%.0f", bytes);
        out += "\"" + kind + "\":" + num;
      }
      out += "}";
    }
    out += "}";
  }
  std::uint32_t reachable = 0;
  for (const NodePoll& p : polls) reachable += p.reachable ? 1 : 0;
  out += "],\"reachable\":" + std::to_string(reachable);
  out += ",\"total\":" + std::to_string(polls.size()) + "}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage();
    return 0;
  }

  std::vector<NodePoll> prev;
  while (true) {
    std::vector<NodePoll> polls;
    polls.reserve(opt.endpoints.size());
    for (const auto& [host, port] : opt.endpoints) {
      polls.push_back(poll_node(host, port));
    }
    std::uint32_t reachable = 0;
    for (const NodePoll& p : polls) reachable += p.reachable ? 1 : 0;

    if (opt.once) {
      if (opt.json) {
        print_json(opt, polls);
      } else {
        print_table(opt, polls, prev, 0, /*clear_screen=*/false);
      }
      return reachable == polls.size() ? 0 : 1;
    }
    print_table(opt, polls, prev, prev.empty() ? 0 : opt.interval,
                /*clear_screen=*/true);
    prev = std::move(polls);
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.interval));
  }
}
