// Repository benchmark program: runs one workload for one seed and prints
// every metric by name with its unit. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; lines before it
// start with '#' and carry the run's metadata and notes.
//
//   e2ebench --workload paper_sweep|congested_async|skewed_rw --seed N
//            --seconds S --trace 0|1 [--smoke] [--spans-out FILE]
//            [--commit ID]
//
// --trace 0 reports the end-to-end metrics of the untraced run; --trace 1
// reports the per-layer metrics of the traced run. Exit codes: 0 ok,
// 1 a check failed (workload, seed and operation printed), 2 usage,
// 3 refused: unoptimised build.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "support.h"
#include "util/check.h"

namespace {

using namespace e2e;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const std::vector<MetricDef> kEndToEnd = {
    {"ops_per_s", "1/s"},
    {"op_p50_us", "us"},
    {"op_p99_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sim_delay_mean", "hops"},
    {"sim_latency_p99", "sim_time"},
    {"messages_per_query", "count"},
    {"full_answer_frac", "ratio"},
};

const std::vector<MetricDef> kPerLayer = {
    {"kautz.viable_evals_per_query", "count"},
    {"kautz.intersects_prefix_ns", "ns"},
    {"kautz.single_hash_ns", "ns"},
    {"armada.useful_eval_ratio", "ratio"},
    {"armada.frt_us_per_query", "us"},
    {"armada.frt_self_us_per_query", "us"},
    {"armada.scan_objects_per_query", "count"},
    {"armada.scan_match_ratio", "ratio"},
    {"armada.publish_us", "us"},
    {"sim.events_per_query", "count"},
    {"sim.equal_time_batch_mean", "count"},
    {"sim.dispatch_ns_per_event", "ns"},
    {"net.deliver_ns", "ns"},
    {"net.queue_delay_mean", "sim_time"},
    {"net.ingress_depth_peak", "count"},
    {"net.service_utilization", "ratio"},
    {"net.shed_frac", "ratio"},
    {"net.departures_saved_frac", "ratio"},
    {"fissione.join_us", "us"},
    {"fissione.leave_us", "us"},
    {"fissione.rewired_per_churn", "count"},
    {"fissione.route_ns", "ns"},
    {"fissione.build_s", "s"},
    {"replica.on_membership_us", "us"},
    {"replica.invalidations_per_write", "count"},
    {"replica.cache_hit_ratio", "ratio"},
    {"replica.replica_routes_per_query", "count"},
    {"replica.placement_messages", "count"},
    {"rebalance.on_membership_us", "us"},
    {"rebalance.migrations_completed", "count"},
    {"rebalance.objects_migrated", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.spans_per_query", "count"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "paper_sweep|congested_async|skewed_rw --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans-out FILE] [--commit ID]\n",
               msg);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool optimised_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && opts.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = val == "0" || val == "1";
      opts.trace = val == "1";
    } else if (arg == "--spans-out") {
      opts.spans_out = val;
    } else if (arg == "--commit") {
      commit = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  Report (*run)(const Options&, SpanLog&) = nullptr;
  if (opts.workload == "paper_sweep") {
    run = run_paper_sweep;
  } else if (opts.workload == "congested_async") {
    run = run_congested_async;
  } else if (opts.workload == "skewed_rw") {
    run = run_skewed_rw;
  } else {
    return usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  if (!optimised_build() && !opts.smoke) {
    std::fprintf(stderr,
                 "e2ebench: refusing to record numbers from an unoptimised "
                 "build (%s); build with -DCMAKE_BUILD_TYPE=Release\n",
                 E2E_BUILD_TYPE);
    return 3;
  }

  std::printf("# meta {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
              "\"trace\":%d,\"smoke\":%s,\"nproc\":%ld,\"cpu\":%s,"
              "\"compiler\":%s,\"build_type\":%s,\"optimised\":%s,"
              "\"commit\":%s}\n",
              json_string(opts.workload).c_str(),
              static_cast<unsigned long long>(opts.seed),
              json_number(opts.seconds).c_str(), opts.trace ? 1 : 0,
              opts.smoke ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
              json_string(cpu_model()).c_str(),
              json_string(E2E_COMPILER).c_str(),
              json_string(E2E_BUILD_TYPE).c_str(),
              optimised_build() ? "true" : "false",
              json_string(commit).c_str());
  std::fflush(stdout);

  SpanLog spans;
  Report rep;
  try {
    rep = run(opts, spans);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr,
                 "e2ebench: CHECK FAILED workload=%s seed=%llu op=%lld: %s\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed), e.op, e.what());
    return 1;
  } catch (const armada::CheckError& e) {
    std::fprintf(stderr, "e2ebench: library check failed workload=%s seed=%llu: %s\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed), e.what());
    return 1;
  }

  const std::vector<MetricDef>& defs = opts.trace ? kPerLayer : kEndToEnd;
  for (const MetricDef& d : defs) {
    if (rep.metrics.count(d.name) == 0) {
      std::fprintf(stderr, "e2ebench: workload did not report %s\n", d.name);
      return 1;
    }
  }
  if (rep.metrics.size() != defs.size()) {
    std::fprintf(stderr, "e2ebench: workload reported unlisted metrics\n");
    return 1;
  }
  if (opts.trace && !opts.spans_out.empty() &&
      !spans.write_jsonl(opts.spans_out)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", opts.spans_out.c_str());
    return 1;
  }

  for (const std::string& note : rep.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (!rep.undefined.empty()) {
    std::string list;
    for (const std::string& name : rep.undefined) {
      list += (list.empty() ? "" : ", ") + name;
    }
    std::printf("# not defined on this workload, reported as 0: %s\n",
                list.c_str());
  }
  std::printf("# determinism digest %s (simulated and count metrics of one "
              "round)\n",
              rep.digest.c_str());
  if (opts.trace) {
    std::printf("# %zu benchmark spans%s%s\n", spans.size(),
                opts.spans_out.empty() ? "" : " written to ",
                opts.spans_out.c_str());
  }
  for (const MetricDef& d : defs) {
    std::printf("# %-34s %16.6f %s\n", d.name, rep.metrics.at(d.name), d.unit);
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    json += (first ? "" : ", ") + json_string(d.name) + ": {\"value\": " +
            json_number(rep.metrics.at(d.name)) + ", \"unit\": " +
            json_string(d.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
