// fedbench: one end-to-end and per-layer benchmark of the fig-2 federation.
//
//   fedbench --workload <tree_xml|tree_delta|dashboard|membership>
//            --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//   fedbench --selftest
//
// A run prints every metric by name with its unit, the operations
// attempted and failed, and the verdict of the workload's checks; its last
// line is one JSON object.  --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones (a layer a workload does not run reads 0).
// The exit code is non-zero when a check failed.
//
// --selftest runs every workload at tiny scale: clean with two seeds (the
// checks must pass) and with each deliberate fault in the benchmark's
// reference answers (the checks must fail).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"tree_xml", "tree_delta", "dashboard",
                                  "membership"};

/// Every per-layer metric, in report order, with its unit.  Each traced
/// run prints all of them.
std::vector<Metric> per_layer_catalog() {
  std::vector<Metric> c;
  const auto add = [&](std::string name, const char* unit) {
    c.push_back({std::move(name), 0, unit});
  };
  for (const char* node : {"root", "ucsd", "sdsc", "physics", "math", "attic"}) {
    add(std::string("gmetad.") + node + ".cpu_ms", "ms");
    add(std::string("gmetad.") + node + ".poll_ms", "ms");
    add(std::string("gmetad.") + node + ".poll_self_ms", "ms");
  }
  add("gmetad.dump_ms", "ms");
  add("xml.parse_ms", "ms");
  add("xml.parse_mb_per_s", "MB/s");
  add("fed.serve_ms", "ms");
  add("fed.delta_bytes_per_poll", "bytes");
  add("fed.full_responses", "count");
  add("fed.diff_ms", "ms");
  add("fed.apply_ms", "ms");
  add("rrd.archive_ms", "ms");
  add("rrd.databases", "count");
  add("render.prime_ms", "ms");
  const char* const edges[][2] = {
      {"root", "root-alpha"},       {"root", "root-beta"},
      {"root", "ucsd"},             {"root", "sdsc"},
      {"ucsd", "ucsd-alpha"},       {"ucsd", "ucsd-beta"},
      {"ucsd", "physics"},          {"ucsd", "math"},
      {"sdsc", "meteor"},           {"sdsc", "nashi"},
      {"sdsc", "attic"},            {"physics", "physics-alpha"},
      {"physics", "physics-beta"},  {"math", "math-alpha"},
      {"math", "math-beta"},        {"attic", "attic-alpha"},
      {"attic", "attic-beta"}};
  for (const auto& e : edges) {
    add(std::string("net.edge_bytes.") + e[0] + "." + e[1], "bytes");
  }
  for (const char* plan : {"topk", "group", "window"}) {
    add(std::string("query.exec_ms.") + plan, "ms");
  }
  const char* const routes[] = {"api_summary", "ui_meta",     "ui_cluster",
                                "ui_host",     "query_topk",  "query_group",
                                "query_window", "api_cluster", "api_tree",
                                "xml_tree"};
  for (const char* r : routes) add(std::string("http.page_cold_ms.") + r, "ms");
  for (const char* r : routes) add(std::string("http.page_warm_ms.") + r, "ms");
  add("http.revalidate_ms", "ms");
  add("http.cache_hits", "count");
  add("http.cache_lookups", "count");
  for (const char* v : {"meta", "cluster", "host"}) {
    add(std::string("presenter.view_ms.") + v, "ms");
  }
  for (const char* v : {"meta", "cluster", "host"}) {
    add(std::string("presenter.view_bytes.") + v, "bytes");
  }
  add("gossip.tick_ms", "ms");
  add("gossip.bytes_per_member_round", "bytes");
  add("gossip.rows_sent", "count");
  add("gossip.rows_suppressed", "count");
  add("gossip.full_resyncs", "count");
  add("gossip.detect_rounds", "count");
  add("gossip.rejoin_rounds", "count");
  add("wall.freshness_ms_p50", "ms");
  add("wall.freshness_ms_tail", "ms");
  add("wall.page_set_ms_p50", "ms");
  add("wall.page_set_ms_tail", "ms");
  add("gmon.report_ms", "ms");
  add("harness.capture_ms", "ms");
  add("proc.uncharged_cpu_ms", "ms");
  add("trace.round_cpu_ms", "ms");
  add("trace.overhead_ms", "ms");
  return c;
}

bool known_workload(const std::string& w) {
  for (const char* k : kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

Outcome run(const Options& options) {
  return options.workload == "membership" ? run_membership(options)
                                          : run_tree(options);
}

/// Metrics for the JSON line: the end-to-end set, or the per-layer
/// catalog filled from what the workload measured.
std::vector<Metric> reported(const Options& options, const Outcome& out,
                             std::vector<std::string>& unlisted) {
  if (!options.trace) return out.end_to_end;
  std::vector<Metric> cat = per_layer_catalog();
  for (const Metric& m : out.per_layer) {
    bool found = false;
    for (Metric& c : cat) {
      if (c.name == m.name) {
        c.value = m.value;
        found = true;
      }
    }
    if (!found) unlisted.push_back(m.name);
  }
  return cat;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run_one(const Options& options) {
  std::printf("fedbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const Outcome out = run(options);
  std::vector<std::string> unlisted;
  const std::vector<Metric> metrics = reported(options, out, unlisted);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& note : out.notes) std::printf("  # %s\n", note.c_str());
  for (const std::string& name : unlisted) {
    std::printf("  # measured but not in the catalog: %s\n", name.c_str());
  }
  std::printf("operations attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  if (out.correct()) {
    std::printf("checks: PASS\n");
  } else {
    std::printf("checks: FAIL (%zu)\n", out.problems.size());
    for (std::size_t i = 0; i < out.problems.size() && i < 10; ++i) {
      std::printf("  ! %s\n", out.problems[i].c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

int selftest() {
  struct Case {
    const char* workload;
    Perturb perturb;
    const char* what;
  };
  const Case cases[] = {
      {"tree_xml", Perturb::fold_off_by_one_host, "reference fold off by one host"},
      {"tree_xml", Perturb::edge_summary, "reference child summary off by one host"},
      {"tree_delta", Perturb::fold_off_by_one_host, "reference fold off by one host"},
      {"tree_delta", Perturb::edge_summary, "reference child summary off by one host"},
      {"dashboard", Perturb::topk_value, "reference top-k value perturbed"},
      {"dashboard", Perturb::stale_first_page, "first page expected to hold last round"},
      {"membership", Perturb::unconvicted_crash, "crash scheduled, never happens"},
      {"membership", Perturb::early_conviction, "conviction expected before t_fail"},
      {"membership", Perturb::restart_not_seen, "restart scheduled, never happens"},
  };
  int bad = 0;
  for (const char* workload : kWorkloads) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      Options o;
      o.workload = workload;
      o.seed = seed;
      o.seconds = 0.5;
      o.tiny = true;
      const Outcome out = run(o);
      const bool ok = out.correct() && out.failed == 0 && out.attempted > 0;
      std::printf("%-5s %-11s seed %llu clean run: checks %s, attempted %llu\n",
                  ok ? "ok" : "BAD", workload,
                  static_cast<unsigned long long>(seed),
                  out.correct() ? "pass" : "FAIL",
                  static_cast<unsigned long long>(out.attempted));
      if (!ok) {
        ++bad;
        for (const auto& p : out.problems) std::printf("        ! %s\n", p.c_str());
      }
    }
  }
  for (const Case& c : cases) {
    Options o;
    o.workload = c.workload;
    o.seed = 3;
    o.seconds = 0.5;
    o.tiny = true;
    o.perturb = c.perturb;
    const Outcome out = run(o);
    const bool ok = !out.correct();
    std::printf("%-5s %-11s %-42s -> checks %s%s%s\n", ok ? "ok" : "BAD",
                c.workload, c.what, out.correct() ? "pass" : "fail",
                out.problems.empty() ? "" : ": ",
                out.problems.empty() ? "" : out.problems.front().c_str());
    if (!ok) ++bad;
  }
  std::printf("selftest: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: fedbench --workload <tree_xml|tree_delta|dashboard|"
               "membership> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-dir <dir>]\n"
               "       fedbench --selftest\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--spans-dir") {
      options.spans_dir = value();
    } else if (arg == "--selftest") {
      return selftest();
    } else {
      usage();
      return 2;
    }
  }
  if (!known_workload(options.workload) || options.seconds <= 0) {
    usage();
    return 2;
  }
  return run_one(options);
}
