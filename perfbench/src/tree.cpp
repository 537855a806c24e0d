// The fig-2 federation workloads: tree_xml, tree_delta and dashboard.
//
// The tree is the paper's figure 2 (gmetad::fig2_spec): six gmetads, twelve
// pseudo-gmond clusters, wired here by hand over one in-memory fabric so
// that every service the fabric dispatches to is wrapped by the benchmark.
// A wrapper records a span and keeps a copy of the bytes the child served;
// the checks rebuild each parent's view from those bytes with the
// benchmark's own fold, and the traced run replays them through the
// public layer functions (parse_report, apply_rows, diff_report,
// Archiver, prime_fragments, query::execute).
//
// One round: advance the simulated clock one poll interval, poll every
// gmetad children-first (so a value reaches the root within the round),
// load the workload's page set, then check the outputs.  Only the polls
// and the page set are timed; checks and replays run outside both
// windows.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "fed/apply.hpp"
#include "fed/codec.hpp"
#include "fed/diff.hpp"
#include "gmetad/archiver.hpp"
#include "gmetad/gmetad.hpp"
#include "gmetad/render/fragments.hpp"
#include "gmetad/testbed.hpp"
#include "gmon/pseudo_gmond.hpp"
#include "http/gateway.hpp"
#include "net/framing.hpp"
#include "net/inmem.hpp"
#include "net/tcp.hpp"
#include "presenter/viewer.hpp"
#include "query/executor.hpp"
#include "query/grammar.hpp"
#include "sim/sim_clock.hpp"

namespace perfbench {
namespace {

using namespace ganglia;
using gmetad::Gmetad;
using gmetad::Testbed;

constexpr std::int64_t kPollIntervalS = 15;
constexpr std::size_t kSetups = 5;  // set-ups per run (median reported)
constexpr int kMaxWarmupRounds = 12;

/// Metrics the dashboard queries (top-k, per-cluster sums, per-host
/// values and an RRD window for each): every non-constant numeric metric
/// of the gmond catalogue.
constexpr const char* kDashboardMetrics[] = {
    "heartbeat",  "load_one",    "load_five",  "load_fifteen", "proc_run",
    "proc_total", "cpu_user",    "cpu_nice",   "cpu_system",   "cpu_idle",
    "cpu_wio",    "cpu_aidle",   "mem_free",   "mem_shared",   "mem_buffers",
    "mem_cached", "swap_free",   "bytes_in",   "bytes_out",    "pkts_in",
    "pkts_out",   "part_max_used"};

// ------------------------------------------------------------------ folds

/// The benchmark's own additive reduction: host up/down counts and
/// per-metric SUM/NUM, computed from VAL strings (not the parser's
/// numeric field) with the DTD's liveness rule.
struct Fold {
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  std::map<std::string, std::pair<double, std::uint64_t>> metrics;

  void add_host(const Host& host) {
    if (host.tn > 4 * host.tmax) {
      ++down;
      return;
    }
    ++up;
    for (const ganglia::Metric& m : host.metrics) {
      if (m.type == MetricType::string_t) continue;
      auto& [sum, num] = metrics[m.name];
      sum += std::strtod(m.value.c_str(), nullptr);
      ++num;
    }
  }
  void add_summary(const SummaryInfo& s) {
    up += s.hosts_up;
    down += s.hosts_down;
    for (const auto& [name, ms] : s.metrics) {
      auto& [sum, num] = metrics[name];
      sum += ms.sum;
      num += ms.num;
    }
  }
  void add_cluster(const Cluster& c) {
    if (c.summary) {
      add_summary(*c.summary);
      return;
    }
    for (const auto& [name, host] : c.hosts) add_host(host);
  }
  void add_grid(const Grid& g) {
    if (g.summary) {
      add_summary(*g.summary);
      return;
    }
    for (const Cluster& c : g.clusters) add_cluster(c);
    for (const Grid& child : g.grids) add_grid(child);
  }
  void merge(const Fold& o) {
    up += o.up;
    down += o.down;
    for (const auto& [name, v] : o.metrics) {
      metrics[name].first += v.first;
      metrics[name].second += v.second;
    }
  }
};

/// The value of `key` in a page target's query string ("" when absent).
std::string query_param(const std::string& target, const std::string& key) {
  std::size_t pos = target.find('?');
  while (pos != std::string::npos) {
    ++pos;
    const std::size_t end = std::min(target.find('&', pos), target.size());
    if (target.compare(pos, key.size(), key) == 0 && pos + key.size() < end &&
        target[pos + key.size()] == '=') {
      return target.substr(pos + key.size() + 1, end - pos - key.size() - 1);
    }
    pos = end < target.size() ? end : std::string::npos;
  }
  return "";
}

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Compare a program-held summary with a reference fold; returns "" or the
/// first difference.
std::string compare(const Fold& ref, const SummaryInfo& got) {
  char buf[256];
  if (ref.up != got.hosts_up || ref.down != got.hosts_down) {
    std::snprintf(buf, sizeof buf, "hosts up/down %u/%u, expected %llu/%llu",
                  got.hosts_up, got.hosts_down,
                  static_cast<unsigned long long>(ref.up),
                  static_cast<unsigned long long>(ref.down));
    return buf;
  }
  if (ref.metrics.size() != got.metrics.size()) {
    std::snprintf(buf, sizeof buf, "%zu metrics, expected %zu",
                  got.metrics.size(), ref.metrics.size());
    return buf;
  }
  for (const auto& [name, v] : ref.metrics) {
    const auto it = got.metrics.find(name);
    if (it == got.metrics.end()) return "metric " + name + " missing";
    if (it->second.num != v.second || !close_enough(it->second.sum, v.first)) {
      std::snprintf(buf, sizeof buf, "%s SUM/NUM %.17g/%llu, expected %.17g/%llu",
                    name.c_str(), it->second.sum,
                    static_cast<unsigned long long>(it->second.num), v.first,
                    static_cast<unsigned long long>(v.second));
      return buf;
    }
  }
  return "";
}

// ------------------------------------------------------------- workloads

enum class Kind { tree_xml, tree_delta, dashboard };

/// One parent<-child link of the tree.
struct Edge {
  std::string parent;
  std::string child;
  bool gmond = false;
  std::vector<std::string> addresses;  ///< fabric addresses of this link

  std::mutex mutex;  ///< guards `served` (written on a poll worker)
  /// Responses served to the parent this round, tagged fed/xml.
  std::vector<std::pair<bool, std::string>> served;

  // The parent's view rebuilt from served bytes.
  std::optional<Report> doc;
  std::vector<std::string> names;  ///< client half of the fed dictionary
  std::optional<Report> prev;      ///< last round's doc (diff replay input)
  bool fresh = false;              ///< something was served this round
  Fold fold;                       ///< fold of `doc` this round
};

/// Per-round figures of the traced layers.
struct LayerRound {
  double parse_ms = 0;
  double parse_bytes = 0;
  double apply_ms = 0;
  double diff_ms = 0;
  double archive_ms = 0;
  double prime_ms = 0;
  std::uint64_t full_responses = 0;
  std::uint64_t fed_polls = 0;
  std::uint64_t fed_bytes = 0;
};

/// A page the dashboard client loads, with the route it reports under.
struct Page {
  std::string route;
  std::string target;
};

/// Minimal blocking keep-alive HTTP/1.1 client over one stream.
struct HttpReply {
  int status = 0;
  std::string etag;
  std::string body;
  bool close = false;  ///< the server ends the connection after this reply
};

Result<HttpReply> http_get(net::Stream& stream, const std::string& target,
                           const std::string& if_none_match) {
  std::string request = "GET " + target + " HTTP/1.1\r\nHost: bench\r\n";
  if (!if_none_match.empty()) {
    request += "If-None-Match: " + if_none_match + "\r\n";
  }
  request += "\r\n";
  if (Status s = stream.write_all(request); !s.ok()) return s.error();
  std::string buf;
  std::size_t head_end = std::string::npos;
  char chunk[16384];
  while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
    auto n = stream.read(chunk, sizeof chunk);
    if (!n.ok()) return n.error();
    if (*n == 0) return Err(Errc::closed, "eof before headers");
    buf.append(chunk, *n);
  }
  HttpReply reply;
  std::size_t length = 0;
  std::size_t line_start = 0;
  bool first = true;
  while (line_start < head_end) {
    std::size_t line_end = buf.find("\r\n", line_start);
    const std::string line = buf.substr(line_start, line_end - line_start);
    line_start = line_end + 2;
    if (first) {
      first = false;
      if (line.size() < 12) return Err(Errc::parse_error, "bad status line");
      reply.status = std::atoi(line.c_str() + 9);
      continue;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    std::size_t v = colon + 1;
    while (v < line.size() && line[v] == ' ') ++v;
    const std::string value = line.substr(v);
    if (key == "content-length") {
      length = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "connection") {
      reply.close = value == "close";
    } else if (key == "etag") {
      reply.etag = value;
    }
  }
  reply.body = buf.substr(head_end + 4);
  while (reply.body.size() < length) {
    auto n = stream.read(chunk, sizeof chunk);
    if (!n.ok()) return n.error();
    if (*n == 0) return Err(Errc::closed, "eof inside body");
    reply.body.append(chunk, *n);
  }
  if (reply.body.size() > length) {
    return Err(Errc::parse_error, "response longer than its length");
  }
  return reply;
}

class Tree {
 public:
  Tree(Kind kind, const Options& options, Tracer& tracer)
      : kind_(kind), options_(options), tracer_(tracer) {
    const bool delta = kind != Kind::tree_xml;
    const std::size_t hosts = options.tiny ? 8 : 100;
    spec_ = gmetad::fig2_spec(hosts, gmetad::Mode::n_level);
    Rng rng(SplitMix64(options.seed * 0x9e3779b97f4a7c15ULL + 12).next());

    // Clusters: every leaf source is a pseudo-gmond service.
    for (const auto& node : spec_.nodes) {
      for (const std::string& name : node.cluster_names) {
        gmon::PseudoGmondConfig config;
        config.cluster_name = name;
        config.host_count = hosts;
        config.seed = rng.next_u64();
        config.soft_state_timers = delta;
        auto emulator = std::make_unique<gmon::PseudoGmond>(config, clock_);
        // A few silent hosts per cluster, so HOSTS DOWN is exercised.
        const std::size_t down = rng.next_below(options.tiny ? 2 : 4);
        emulator->set_down_hosts(down);
        down_[name] = down;
        Edge& edge = add_edge(node.name, name, true);
        edge.addresses.push_back(Testbed::gmond_address(name));
        fabric_.register_service(
            Testbed::gmond_address(name),
            wrap("gmon.report:" + name, edge, false, emulator->service()));
        if (delta) {
          edge.addresses.push_back(Testbed::gmond_federation_address(name));
          fabric_.register_service(
              Testbed::gmond_federation_address(name),
              wrap("gmon.report:" + name, edge, true,
                   emulator->federation_service()));
        }
        clusters_.emplace(name, std::move(emulator));
      }
    }

    // Gmetads: shipped defaults (N-level, archiving on, poll_threads auto,
    // federation on when a fed address is configured).
    for (const auto& node : spec_.nodes) {
      gmetad::GmetadConfig config;
      config.grid_name = node.name;
      config.authority = "gmetad://" + node.name + ".gmeta:8651/";
      config.archive_step_s = kPollIntervalS;
      for (const std::string& cluster : node.cluster_names) {
        gmetad::DataSourceConfig ds;
        ds.name = cluster;
        ds.addresses = {Testbed::gmond_address(cluster)};
        if (delta) ds.federation_address = Testbed::gmond_federation_address(cluster);
        config.sources.push_back(std::move(ds));
      }
      for (const std::string& child : node.children) {
        gmetad::DataSourceConfig ds;
        ds.name = child;
        ds.addresses = {Testbed::dump_address(child)};
        if (delta) ds.federation_address = Testbed::federation_address(child);
        config.sources.push_back(std::move(ds));
      }
      gmetads_.emplace(node.name,
                       std::make_unique<Gmetad>(std::move(config), fabric_, clock_));
    }
    for (const auto& node : spec_.nodes) {
      Gmetad& g = *gmetads_.at(node.name);
      Edge* edge = nullptr;
      for (const auto& parent : spec_.nodes) {
        for (const std::string& c : parent.children) {
          if (c == node.name) edge = &add_edge(parent.name, node.name, false);
        }
      }
      if (edge != nullptr) {
        edge->addresses.push_back(Testbed::dump_address(node.name));
        fabric_.register_service(
            Testbed::dump_address(node.name),
            wrap("gmetad.dump:" + node.name, *edge, false, g.dump_service()));
        if (delta) {
          edge->addresses.push_back(Testbed::federation_address(node.name));
          fabric_.register_service(
              Testbed::federation_address(node.name),
              wrap("fed.serve:" + node.name, *edge, true,
                   g.federation_service()));
        }
      }
      fabric_.register_service(
          Testbed::interactive_address(node.name),
          [this, inner = g.interactive_service(),
           name = "gmetad.query:" + node.name](std::string_view req) {
            Tracer::Scope span(tracer_, name, tracer_.active());
            return inner(req);
          });
    }

    // Children-first poll order (post-order from the root).
    const auto visit = [&](const auto& self, const std::string& name) -> void {
      for (const auto& node : spec_.nodes) {
        if (node.name != name) continue;
        for (const std::string& child : node.children) self(self, child);
        poll_order_.push_back(name);
      }
    };
    visit(visit, root_name());

    // The Table-1 viewer's host: one seed-chosen host of the root's own
    // first cluster (the root is authority for its clusters only).
    const auto& root_clusters = spec_.nodes.front().cluster_names;
    view_cluster_ = root_clusters.front();
    view_host_ = "compute-0-" +
                 std::to_string(down_.at(view_cluster_) +
                                rng.next_below(static_cast<std::uint32_t>(
                                    hosts - down_.at(view_cluster_)))) +
                 ".local";
    for (const std::string& c : root_clusters) {
      for (std::size_t k = 0; k < hosts; ++k) {
        host_pages_.emplace_back(c, "compute-0-" + std::to_string(k) + ".local");
      }
    }
  }

  ~Tree() {
    client_.reset();
    if (server_) server_->stop();
  }

  const std::string& root_name() const { return spec_.nodes.front().name; }
  Gmetad& root() { return *gmetads_.at(root_name()); }

  /// Warm up until every source polls cleanly (over a delta session where
  /// one is configured) and the root holds the round's data.
  bool warm_up(Outcome& out) {
    for (int round = 1; round <= kMaxWarmupRounds; ++round) {
      const std::uint64_t before = total_delta_polls();
      clock_.advance_seconds(static_cast<double>(kPollIntervalS));
      bool ok = true;
      for (const std::string& name : poll_order_) {
        for (const auto& r : gmetads_.at(name)->poll_once()) ok = ok && r.ok;
      }
      LayerRound unused;
      Outcome scratch;
      absorb(false, unused, scratch);
      drop_xml_docs();
      const bool delta_ok = kind_ == Kind::tree_xml ||
                            total_delta_polls() - before == edges_.size();
      if (ok && delta_ok && scratch.correct() && round >= 3 && root_fresh()) {
        if (kind_ == Kind::dashboard && !start_http(out)) return false;
        return true;
      }
    }
    out.problem("warm-up: the tree did not settle within " +
                std::to_string(kMaxWarmupRounds) + " rounds");
    return false;
  }

  /// Run measured rounds until `seconds` of wall time have passed.
  void measure(double seconds, Outcome& out) {
    if (options_.trace) setup_replay();
    const std::int64_t deadline =
        wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::uint32_t round = 0;
    while (wall_ns() < deadline || round < 2) {
      ++round;
      run_round(round, out);
      if (!out.correct() && options_.perturb == Perturb::none) break;
    }
    report(out);
    if (options_.trace && !options_.spans_dir.empty()) {
      const std::string path = options_.spans_dir + "/spans-" +
                               options_.workload + "-seed" +
                               std::to_string(options_.seed) + ".tsv";
      if (!tracer_.write(path)) out.notes.push_back("could not write " + path);
      else out.notes.push_back("spans written to " + path);
    }
  }

 private:
  Edge& add_edge(const std::string& parent, const std::string& child,
                 bool gmond) {
    auto edge = std::make_unique<Edge>();
    edge->parent = parent;
    edge->child = child;
    edge->gmond = gmond;
    Edge& ref = *edge;
    edges_.push_back(std::move(edge));
    return ref;
  }

  net::ServiceFn wrap(std::string span_name, Edge& edge, bool fed,
                      net::ServiceFn inner) {
    return [this, span_name = std::move(span_name), &edge, fed,
            inner = std::move(inner)](std::string_view request)
               -> Result<std::string> {
      Result<std::string> response = [&] {
        Tracer::Scope span(tracer_, span_name, tracer_.active());
        return inner(request);
      }();
      if (response.ok()) {
        // The copy runs inside the timed poll; its cost is reported.
        const std::int64_t t0 = wall_ns();
        {
          std::lock_guard lock(edge.mutex);
          edge.served.emplace_back(fed, *response);
        }
        capture_ns_ += wall_ns() - t0;
      }
      return response;
    };
  }

  std::uint64_t total_delta_polls() {
    std::uint64_t n = 0;
    for (const auto& [name, g] : gmetads_) {
      for (const gmetad::DataSource* ds : g->sources()) n += ds->delta_polls();
    }
    return n;
  }

  bool root_fresh() {
    const std::int64_t now = clock_.now_seconds();
    const auto all = root().store().all();
    if (all.empty()) return false;
    for (const auto& snap : all) {
      if (!snap->reachable() || snap->fetched_at() != now) return false;
    }
    return true;
  }

  // --------------------------------------------------------------- HTTP

  bool start_http(Outcome& out) {
    server_ = std::make_unique<http::GatewayServer>(root(), clock_);
    if (Status s = server_->start(tcp_, "127.0.0.1:0"); !s.ok()) {
      out.problem("http listener: " + s.error().to_string());
      return false;
    }
    // The page set: first the whole-grid summary (the freshness probe),
    // then the /ui views, query plans, per-cluster JSON and whole-tree
    // documents a dashboard refreshes.
    pages_.push_back({"api_summary", "/api/v1/?filter=summary"});
    pages_.push_back({"ui_meta", "/ui/meta"});
    for (const std::string& c : spec_.nodes.front().cluster_names) {
      pages_.push_back({"ui_cluster", "/ui/cluster/" + c});
    }
    for (const auto& [c, h] : host_pages_) {
      pages_.push_back({"ui_host", "/ui/host/" + c + "/" + h});
    }
    for (const char* metric : kDashboardMetrics) {
      const std::string q = std::string("/api/v1/query?metric=") + metric;
      pages_.push_back({"query_topk", q + "&top=10"});
      for (const std::string& c : spec_.nodes.front().cluster_names) {
        pages_.push_back({"query_topk", q + "&top=10&from=/" + c});
      }
      pages_.push_back({"query_group", q + "&group=cluster&agg=sum"});
      pages_.push_back({"query_group", q + "&group=cluster&agg=max"});
      pages_.push_back({"query_group", q + "&group=host&agg=max"});
      pages_.push_back({"query_window", q + "&last=3600&cf=max&top=5"});
      pages_.push_back({"query_window", q + "&last=900&cf=avg&top=5"});
      for (const std::string& c : spec_.nodes.front().cluster_names) {
        pages_.push_back({"query_window", q + "&last=3600&cf=avg&top=5&from=/" + c});
        pages_.push_back({"query_window", q + "&last=900&cf=max&top=5&from=/" + c});
      }
    }
    for (const std::string& c : spec_.nodes.front().cluster_names) {
      pages_.push_back({"api_cluster", "/api/v1/" + c});
    }
    pages_.push_back({"api_tree", "/api/v1/"});
    pages_.push_back({"xml_tree", "/xml/"});
    return true;
  }

  /// One request on the dashboard's keep-alive connection.  The server
  /// closes a connection after its per-connection request budget; the
  /// client then reconnects, as a browser does.
  Result<HttpReply> fetch(const std::string& target, const std::string& inm) {
    if (client_ == nullptr) {
      auto stream = tcp_.connect(server_->address(), 10 * kMicrosPerSecond);
      if (!stream.ok()) return stream.error();
      client_ = std::move(*stream);
      ++reconnects_;
    }
    auto reply = http_get(*client_, target, inm);
    if (!reply.ok() || reply->close) client_.reset();
    return reply;
  }

  // -------------------------------------------------------------- rounds

  void run_round(std::uint32_t round, Outcome& out) {
    const bool traced = options_.trace && round % 2 == 0;
    tracer_.set_round(round);
    tracer_.set_enabled(traced);

    std::map<std::string, std::int64_t> meter_before;
    for (const auto& [name, g] : gmetads_) meter_before[name] = g->cpu_meter().total_ns();
    std::map<std::string, net::AddressStats> stats_before;
    for (const auto& edge : edges_) {
      for (const std::string& a : edge->addresses) stats_before[a] = fabric_.stats(a);
    }

    capture_ns_ = 0;
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t wall0 = wall_ns();
    clock_.advance_seconds(static_cast<double>(kPollIntervalS));
    const std::int64_t now = clock_.now_seconds();
    {
      Tracer::Scope round_span(tracer_, "round", 0);
      for (const std::string& name : poll_order_) {
        Tracer::Scope span(tracer_, "gmetad.poll:" + name, round_span.id());
        tracer_.set_active(span.id());
        for (const auto& r : gmetads_.at(name)->poll_once()) {
          ++out.attempted;
          if (!r.ok) {
            ++out.failed;
            out.problem("poll " + name + "/" + r.source + ": " + r.error);
          }
        }
        tracer_.set_active(0);
      }
    }
    const std::int64_t wall1 = wall_ns();
    const std::int64_t cpu1 = process_cpu_ns();

    double charged_ms = 0;
    for (const auto& [name, g] : gmetads_) {
      const double ms = ns_to_ms(g->cpu_meter().total_ns() - meter_before[name]);
      node_cpu_ms_[name].push_back(ms);
      charged_ms += ms;
    }
    round_cpu_ms_.push_back(ns_to_ms(cpu1 - cpu0));
    capture_ms_.push_back(ns_to_ms(capture_ns_));
    (traced ? traced_cpu_ms_ : untraced_cpu_ms_).push_back(ns_to_ms(cpu1 - cpu0));
    uncharged_ms_.push_back(ns_to_ms(cpu1 - cpu0) - charged_ms);

    // Page set.  The dashboard's freshness clock stops when its first page
    // shows this round's data; the tree workloads' when the root's store
    // holds it (the last poll of the round).
    const std::int64_t page_cpu0 = process_cpu_ns();
    double first_page_ns = static_cast<double>(wall1 - wall0);
    if (kind_ == Kind::dashboard) {
      load_http_pages(wall0, first_page_ns, traced, out);
    } else {
      load_viewer_pages(traced, out);
    }
    const std::int64_t wall2 = wall_ns();
    page_cpu_ms_.push_back(ns_to_ms(process_cpu_ns() - page_cpu0));
    freshness_ms_.push_back(first_page_ns / 1e6);
    page_set_ms_.push_back(ns_to_ms(wall2 - wall1));

    // Wire bytes per edge.
    std::uint64_t round_bytes = 0;
    for (const auto& edge : edges_) {
      std::uint64_t b = 0;
      for (const std::string& a : edge->addresses) {
        const net::AddressStats s = fabric_.stats(a);
        b += (s.bytes_served - stats_before[a].bytes_served) +
             (s.bytes_received - stats_before[a].bytes_received);
      }
      edge_bytes_[edge->parent + "." + edge->child] += static_cast<double>(b);
      round_bytes += b;
    }
    wire_bytes_.push_back(static_cast<double>(round_bytes));

    // Checks and replays: outside every timed window.
    tracer_.set_enabled(false);
    LayerRound layers;
    absorb(traced, layers, out);
    check_round(now, out);
    if (traced) {
      replay_round(now, layers);
      collect_spans(round, layers);
      if (kind_ == Kind::dashboard) replay_reads(round, out);
    }
    drop_xml_docs();
    ++rounds_;
  }

  /// An XML edge's document is parsed afresh from every round's bytes, so
  /// it is not kept past the round's checks.
  void drop_xml_docs() {
    if (kind_ != Kind::tree_xml) return;
    for (auto& edge : edges_) edge->doc.reset();
  }

  // Viewer pages (Table 1): meta, cluster and host views of the root over
  // its interactive port.
  void load_viewer_pages(bool traced, Outcome& out) {
    presenter::Viewer viewer(fabric_, Testbed::dump_address(root_name()),
                             Testbed::interactive_address(root_name()),
                             presenter::Strategy::n_level);
    view_pages(viewer, traced, out);
  }

  void view_pages(presenter::Viewer& viewer, bool traced, Outcome& out) {
    const auto timed = [&](const char* view, auto&& call) {
      Tracer::Scope span(tracer_, std::string("presenter.view:") + view, 0);
      tracer_.set_active(span.id());
      auto result = call();
      tracer_.set_active(0);
      ++out.attempted;
      if (!result.ok()) {
        ++out.failed;
        out.problem(std::string("viewer ") + view + ": " +
                    result.error().to_string());
      }
      if (traced) view_bytes_[view].push_back(
          static_cast<double>(viewer.last_timing().xml_bytes));
      return result;
    };
    auto meta = timed("meta", [&] { return viewer.meta_view(); });
    auto cluster = timed("cluster", [&] { return viewer.cluster_view(view_cluster_); });
    auto host = timed("host", [&] { return viewer.host_view(view_cluster_, view_host_); });
    if (meta.ok()) last_meta_total_ = meta->total;
    if (cluster.ok()) last_cluster_hosts_ = cluster->cluster.hosts.size();
    if (host.ok()) last_host_name_ = host->host.name;
  }

  void load_http_pages(std::int64_t wall0, double& first_page_ns, bool traced,
                       Outcome& out) {
    const http::CacheStats cache_before = server_->gateway().cache().stats();
    bodies_.clear();
    std::vector<std::string> etags;
    for (std::size_t i = 0; i < pages_.size(); ++i) {
      const Page& page = pages_[i];
      const std::int64_t t0 = wall_ns();
      Result<HttpReply> reply = [&] {
        Tracer::Scope span(tracer_, "http.page:" + page.route, 0);
        return fetch(page.target, "");
      }();
      const std::int64_t t1 = wall_ns();
      if (i == 0) first_page_ns = static_cast<double>(t1 - wall0);
      ++out.attempted;
      if (!reply.ok() || reply->status != 200 || reply->etag.empty()) {
        ++out.failed;
        out.problem("GET " + page.target + ": " +
                    (reply.ok() ? "status " + std::to_string(reply->status)
                                : reply.error().to_string()));
        etags.emplace_back();
        bodies_.emplace_back();
        continue;
      }
      if (traced) cold_ms_[page.route].push_back(ns_to_ms(t1 - t0));
      etags.push_back(reply->etag);
      bodies_.push_back(std::move(reply->body));
    }
    for (std::size_t i = 0; i < pages_.size(); ++i) {
      if (etags[i].empty()) continue;
      const std::int64_t t0 = wall_ns();
      Result<HttpReply> reply = [&] {
        Tracer::Scope span(tracer_, "http.revalidate:" + pages_[i].route, 0);
        return fetch(pages_[i].target, etags[i]);
      }();
      const std::int64_t t1 = wall_ns();
      ++out.attempted;
      if (!reply.ok() || reply->status != 304 || !reply->body.empty()) {
        ++out.failed;
        out.problem("revalidate " + pages_[i].target + ": " +
                    (reply.ok() ? "status " + std::to_string(reply->status) +
                                      ", " + std::to_string(reply->body.size()) +
                                      " body bytes"
                                : reply.error().to_string()));
        continue;
      }
      if (traced) revalidate_ms_.push_back(ns_to_ms(t1 - t0));
    }
    const http::CacheStats cache_after = server_->gateway().cache().stats();
    cache_hits_ += cache_after.hits - cache_before.hits;
    cache_lookups_ += (cache_after.hits - cache_before.hits) +
                      (cache_after.misses - cache_before.misses);
  }

  // --------------------------------------------------------------- checks

  /// Rebuild every edge's served document from the captured bytes, timing
  /// the parse/apply work when traced, and fold it.
  void absorb(bool traced, LayerRound& layers, Outcome& out) {
    for (auto& edge : edges_) {
      std::vector<std::pair<bool, std::string>> served;
      {
        std::lock_guard lock(edge->mutex);
        served.swap(edge->served);
      }
      edge->fresh = !served.empty();
      if (!edge->fresh) {
        out.problem("edge " + edge->parent + "<-" + edge->child +
                    ": nothing served this round");
        continue;
      }
      // The previous document is the publisher's diff base (replay input).
      if (options_.trace && kind_ != Kind::tree_xml) edge->prev = edge->doc;
      for (const auto& [fed, bytes] : served) {
        if (fed) {
          ++layers.fed_polls;
          layers.fed_bytes += bytes.size();
        }
        if (std::string err = decode(*edge, fed, bytes, traced, layers);
            !err.empty()) {
          out.problem("edge " + edge->parent + "<-" + edge->child + ": " + err);
        }
      }
      edge->fold = Fold{};
      if (!edge->doc) continue;
      if (edge->gmond) {
        for (const Cluster& c : edge->doc->clusters) edge->fold.add_cluster(c);
        if (edge->fold.down != down_.at(edge->child)) {
          out.problem(edge->child + " served " + std::to_string(edge->fold.down) +
                      " down hosts, generated " +
                      std::to_string(down_.at(edge->child)));
        }
      } else {
        for (const Grid& g : edge->doc->grids) edge->fold.add_grid(g);
      }
    }
  }

  /// Check the tree's outputs against the folds of what was served.
  void check_round(std::int64_t now, Outcome& out) {
    // Every edge: the summary the parent holds equals the child's report —
    // the bytes the gmond served, or the child gmetad's own dump port now.
    for (auto& edge : edges_) {
      if (!edge->doc || !edge->fresh) continue;
      auto snap = gmetads_.at(edge->parent)->store().get(edge->child);
      if (snap == nullptr || snap->fetched_at() != now) {
        out.problem("edge " + edge->parent + "<-" + edge->child +
                    ": parent holds no snapshot of this round");
        continue;
      }
      Fold ref = edge->fold;
      if (!edge->gmond) {
        auto dump = parse_report(gmetads_.at(edge->child)->dump_xml());
        if (!dump.ok()) {
          out.problem(edge->child + " dump: " + dump.error().to_string());
          continue;
        }
        ref = Fold{};
        for (const Grid& g : dump->grids) ref.add_grid(g);
        if (options_.perturb == Perturb::edge_summary) ++ref.up;
      }
      if (std::string diff = compare(ref, snap->summary()); !diff.empty()) {
        out.problem("edge " + edge->parent + "<-" + edge->child + ": " + diff);
      }
    }

    // The root: its total equals a fold of the twelve gmond reports.
    Fold ref;
    for (const auto& edge : edges_) {
      if (edge->gmond) ref.merge(edge->fold);
    }
    if (options_.perturb == Perturb::fold_off_by_one_host) {
      // Drop one (up) host of the first cluster from the reference.
      for (const auto& edge : edges_) {
        if (!edge->gmond || !edge->doc) continue;
        for (const auto& [name, host] : edge->doc->clusters.front().hosts) {
          if (host.tn > 4 * host.tmax) continue;
          Fold one;
          one.add_host(host);
          --ref.up;
          for (const auto& [m, v] : one.metrics) {
            ref.metrics[m].first -= v.first;
            ref.metrics[m].second -= v.second;
          }
          break;
        }
        break;
      }
    }
    SummaryInfo root_total;
    for (const auto& snap : root().store().all()) {
      if (snap->fetched_at() != now) {
        out.problem("root: source " + snap->name() + " is not of this round");
      }
      root_total.merge(snap->summary());
    }
    if (std::string diff = compare(ref, root_total); !diff.empty()) {
      out.problem("root total: " + diff);
    }
    prev_root_fold_ = std::move(root_fold_);
    root_fold_ = ref;

    if (kind_ == Kind::dashboard) {
      check_pages(now, out);
    } else {
      if (last_meta_total_.hosts_up != ref.up ||
          last_meta_total_.hosts_down != ref.down) {
        out.problem("viewer meta total disagrees with the fold");
      }
      const std::size_t expect_hosts = clusters_.at(view_cluster_)->host_count();
      if (last_cluster_hosts_ != expect_hosts) {
        out.problem("viewer cluster view has " +
                    std::to_string(last_cluster_hosts_) + " hosts, expected " +
                    std::to_string(expect_hosts));
      }
      if (last_host_name_ != view_host_) out.problem("viewer host view wrong host");
    }
  }

  /// Decode one captured response into the edge's document.
  std::string decode(Edge& edge, bool fed, const std::string& bytes,
                     bool traced, LayerRound& layers) {
    const auto parse_xml = [&](std::string_view xml) -> std::string {
      const std::int64_t t0 = wall_ns();
      auto parsed = parse_report(xml);
      if (traced) {
        layers.parse_ms += ns_to_ms(wall_ns() - t0);
        layers.parse_bytes += static_cast<double>(xml.size());
      }
      if (!parsed.ok()) return "served XML does not parse: " + parsed.error().to_string();
      edge.doc = std::move(*parsed);
      edge.names.clear();
      return "";
    };
    if (!fed) return parse_xml(bytes);

    std::string_view rest = bytes;
    std::vector<net::Frame> frames;
    while (!rest.empty()) {
      net::Frame frame;
      std::size_t used = 0;
      if (net::parse_frame(rest, fed::kMaxResponseBytes, frame, used) !=
          net::FrameParse::ok) {
        return "malformed fed response";
      }
      frames.push_back(frame);
      rest.remove_prefix(used);
    }
    if (frames.empty()) return "empty fed response";
    const std::uint8_t first = frames.front().type;
    if (first == fed::kFrameFullBegin) {
      ++layers.full_responses;
      std::string xml;
      for (std::size_t i = 1; i < frames.size(); ++i) {
        if (frames[i].type != fed::kFrameFullChunk) return "bad full chunk";
        xml.append(frames[i].payload);
      }
      return parse_xml(xml);
    }
    if (first == fed::kFrameDeltaBegin) {
      if (!edge.doc) return "delta without a base";
      std::string rows;
      for (std::size_t i = 1; i < frames.size(); ++i) {
        if (frames[i].type == fed::kFrameRows) rows.append(frames[i].payload);
      }
      const std::int64_t t0 = wall_ns();
      std::size_t applied = 0;
      const Status st = fed::apply_rows(*edge.doc, rows, edge.names, &applied);
      if (traced) layers.apply_ms += ns_to_ms(wall_ns() - t0);
      if (!st.ok()) return "delta does not apply: " + st.error().to_string();
      return "";
    }
    if (first == fed::kFrameError) {
      edge.doc.reset();  // the session falls back to the XML dump
      return "";
    }
    return "unexpected fed frame";
  }

  void check_pages(std::int64_t now, Outcome& out) {
    if (bodies_.size() != pages_.size()) return;
    // First page: the whole-grid summary must be this round's.  Its
    // LOCALTIME is the gateway's render clock (a body cached last round
    // carries last round's); its host counts are the same every round, so
    // the per-metric SUM/NUM, which change every round, show whether the
    // data is this round's.
    const auto summary = parse_json(bodies_[0]);
    const Json* grid = nullptr;
    if (summary) {
      const Json* grids = summary->get("grids");
      if (grids != nullptr && !grids->items.empty()) grid = &grids->items.front();
    }
    const Json* localtime = grid != nullptr ? grid->get("localtime") : nullptr;
    if (localtime == nullptr || static_cast<std::int64_t>(localtime->num) != now) {
      out.problem("first page does not show this round (localtime)");
    }
    const Json* total = nullptr;
    if (grid != nullptr) total = grid->get("total");
    if (total == nullptr) total = grid != nullptr ? grid->get("summary") : nullptr;
    const Json* up = total != nullptr ? total->get("hosts_up") : nullptr;
    const Json* down = total != nullptr ? total->get("hosts_down") : nullptr;
    const Json* metrics = total != nullptr ? total->get("metrics") : nullptr;
    if (up == nullptr || down == nullptr || metrics == nullptr) {
      out.problem("first page carries no grid summary");
    } else {
      SummaryInfo shown;
      shown.hosts_up = static_cast<std::uint32_t>(up->num);
      shown.hosts_down = static_cast<std::uint32_t>(down->num);
      for (const auto& [name, m] : metrics->fields) {
        const Json* sum = m.get("sum");
        const Json* num = m.get("num");
        if (sum == nullptr || num == nullptr) continue;
        shown.metrics[name].sum = sum->num;
        shown.metrics[name].num = static_cast<std::uint64_t>(num->num);
      }
      const bool stale = options_.perturb == Perturb::stale_first_page && rounds_ > 0;
      const Fold& expect = stale ? prev_root_fold_ : root_fold_;
      if (std::string diff = compare(expect, shown); !diff.empty()) {
        out.problem("first page disagrees with the round's fold: " + diff);
      }
    }

    // Query answers over the root's own clusters (the only full-detail
    // hosts an N-level root holds) against the reports their gmonds served:
    // top-k values per metric, over the tree or one cluster, and
    // per-cluster sums and maxima.  The relational view has no liveness
    // filter by default, so silent hosts count too.
    std::map<std::string, std::map<std::string, double>> values;  // metric -> "cluster/host" -> value
    std::map<std::string, Fold> cluster_folds;  // over every host
    std::map<std::string, std::map<std::string, double>> cluster_max;  // cluster -> metric -> max
    for (const auto& edge : edges_) {
      if (!edge->gmond || edge->parent != root_name() || !edge->doc) continue;
      for (const Cluster& c : edge->doc->clusters) {
        Fold& fold = cluster_folds[c.name];
        for (const auto& [name, host] : c.hosts) {
          Host up = host;
          up.tn = 0;
          fold.add_host(up);
        }
        for (const auto& [name, host] : c.hosts) {
          for (const ganglia::Metric& m : host.metrics) {
            const double v = std::strtod(m.value.c_str(), nullptr);
            values[m.name][c.name + "/" + name] = v;
            const auto [it, first] = cluster_max[c.name].emplace(m.name, v);
            if (!first) it->second = std::max(it->second, v);
          }
        }
      }
    }
    bool perturbed = options_.perturb != Perturb::topk_value;
    for (std::size_t i = 0; i < pages_.size(); ++i) {
      const Page& page = pages_[i];
      if (page.route != "query_topk" && page.route != "query_group") continue;
      const std::string metric = query_param(page.target, "metric");
      const auto doc = parse_json(bodies_[i]);
      const Json* query = doc ? doc->get("QUERY") : nullptr;
      const Json* rows = query ? query->get("ROWS") : nullptr;
      if (rows == nullptr) {
        out.problem(page.target + ": no QUERY.ROWS in the answer");
        continue;
      }
      if (page.target.find("group=host") != std::string::npos) {
        // ROWS: [source, cluster, host, value, hosts], one per host.
        const auto& per_host = values[metric];
        std::size_t matched = 0;
        for (const Json& row : rows->items) {
          if (row.items.size() != 5) continue;
          const auto it = per_host.find(row.items[1].str + "/" + row.items[2].str);
          if (it != per_host.end() && it->second == row.items[3].num) ++matched;
        }
        if (matched != per_host.size() || rows->items.size() != per_host.size()) {
          out.problem(page.target + ": per-host answer disagrees with the served reports");
        }
        continue;
      }
      if (page.route == "query_group") {
        // ROWS: [source, cluster, value, hosts].
        std::size_t matched = 0;
        for (const Json& row : rows->items) {
          const auto it = row.items.size() == 4
                              ? cluster_folds.find(row.items[1].str)
                              : cluster_folds.end();
          if (it == cluster_folds.end()) continue;
          const auto& [sum, num] = it->second.metrics[metric];
          const double expect = query_param(page.target, "agg") == "max"
                                    ? cluster_max[it->first][metric]
                                    : sum;
          if (!close_enough(row.items[2].num, expect) ||
              static_cast<std::uint64_t>(row.items[3].num) != num) {
            out.problem(page.target + ": cluster " + it->first +
                        " answer disagrees with the fold");
          }
          ++matched;
        }
        if (matched != cluster_folds.size()) {
          out.problem(page.target + ": answer lacks a root cluster");
        }
        continue;
      }
      const auto& load = values[metric];
      const std::string from = query_param(page.target, "from");  // "/<cluster>"
      const std::string prefix = from.empty() ? "" : from.substr(1) + "/";
      std::vector<double> ref;
      for (const auto& [k, v] : load) {
        if (k.compare(0, prefix.size(), prefix) == 0) ref.push_back(v);
      }
      std::sort(ref.rbegin(), ref.rend());
      ref.resize(std::min<std::size_t>(ref.size(), 10));
      if (!perturbed && !ref.empty()) {
        ref[0] += 0.01;
        perturbed = true;
      }
      // ROWS: [source, cluster, host, value, hosts].
      std::vector<double> got;
      bool hosts_match = true;
      for (const Json& row : rows->items) {
        if (row.items.size() != 5) {
          hosts_match = false;
          continue;
        }
        const double value = row.items[3].num;
        got.push_back(value);
        const std::string key = row.items[1].str + "/" + row.items[2].str;
        const auto it = load.find(key);
        if (it == load.end() || it->second != value ||
            key.compare(0, prefix.size(), prefix) != 0) {
          hosts_match = false;
        }
      }
      if (got != ref || !hosts_match) {
        out.problem(page.target + ": top-k disagrees with the served reports");
      }
    }
  }

  // -------------------------------------------------------------- replays

  void setup_replay() {
    for (const auto& node : spec_.nodes) {
      replay_archivers_.emplace(
          node.name, std::make_unique<gmetad::Archiver>(gmetad::ArchiverOptions{
                         kPollIntervalS, kPollIntervalS * 8, "", 0}));
    }
  }

  /// Replay the round's publish-path work through the public layer
  /// functions: archiving into benchmark-owned archivers, fragment priming
  /// on fresh snapshots, and the publisher's diff on every fed edge.
  void replay_round(std::int64_t now, LayerRound& layers) {
    for (const auto& [name, g] : gmetads_) {
      gmetad::Archiver& archiver = *replay_archivers_.at(name);
      const auto sources = g->store().all();
      std::vector<std::shared_ptr<gmetad::SourceSnapshot>> fresh;
      for (const auto& snap : sources) {
        Report copy;
        copy.clusters = snap->clusters();
        copy.grids = snap->grids();
        fresh.push_back(std::make_shared<gmetad::SourceSnapshot>(
            snap->name(), std::move(copy), now, true));
      }
      const std::int64_t t0 = wall_ns();
      SummaryInfo total;
      for (const auto& snap : sources) {
        archiver.record_summary(snap->name(), snap->summary(), now);
        for (const Cluster& c : snap->clusters()) {
          archiver.record_cluster(snap->name(), c, now);
          archiver.record_summary(snap->name() + "/" + c.name,
                                  snap->cluster_summary(c), now);
        }
        total.merge(snap->summary());
      }
      archiver.record_summary(name, total, now);
      const std::int64_t t1 = wall_ns();
      for (const auto& snap : fresh) {
        gmetad::render::prime_fragments(*snap, gmetad::Mode::n_level);
      }
      const std::int64_t t2 = wall_ns();
      layers.archive_ms += ns_to_ms(t1 - t0);
      layers.prime_ms += ns_to_ms(t2 - t1);
    }
    if (kind_ == Kind::tree_xml) return;
    for (const auto& edge : edges_) {
      if (!edge->prev || !edge->doc) continue;
      fed::NameDict dict;
      fed::RowBuffer rows;
      const std::int64_t t0 = wall_ns();
      (void)fed::diff_report(*edge->prev, *edge->doc, dict, rows);
      layers.diff_ms += ns_to_ms(wall_ns() - t0);
    }
  }

  /// Dashboard-only read replays: the query plans straight through
  /// query::execute, warm (cached) loads of every page, and the Table-1
  /// viewer, so the presenter is measured on every gmetad workload.
  void replay_reads(std::uint32_t round, Outcome& out) {
    tracer_.set_enabled(true);
    tracer_.set_round(round);
    const std::int64_t now = clock_.now_seconds();
    for (const Page& page : pages_) {
      if (page.target.rfind("/api/v1/query?", 0) != 0) continue;
      const std::string qs = page.target.substr(page.target.find('?') + 1);
      const std::int64_t t0 = wall_ns();
      auto plan = query::parse_plan(qs, now);
      bool ok = plan.ok();
      if (ok) {
        auto result = query::execute(*plan, root().store(), &root().archiver(),
                                     query::Budget{});
        ok = result.ok();
      }
      exec_ms_[page.route.substr(6)].push_back(ns_to_ms(wall_ns() - t0));
      if (!ok) out.problem("query replay failed: " + qs);
    }
    for (const Page& page : pages_) {
      const std::int64_t t0 = wall_ns();
      auto reply = fetch(page.target, "");
      const std::int64_t t1 = wall_ns();
      if (!reply.ok() || reply->status != 200) {
        out.problem("warm GET " + page.target + " failed");
        continue;
      }
      warm_ms_[page.route].push_back(ns_to_ms(t1 - t0));
    }
    presenter::Viewer viewer(fabric_, Testbed::dump_address(root_name()),
                             Testbed::interactive_address(root_name()),
                             presenter::Strategy::n_level);
    Outcome scratch;
    view_pages(viewer, true, scratch);
    for (const std::string& p : scratch.problems) out.problem(p);
    collect_view_spans(round);
    tracer_.set_enabled(false);
  }

  void collect_view_spans(std::uint32_t round) {
    const auto spans = tracer_.round_spans(round);
    for (const Span& s : spans) {
      if (s.name.rfind("presenter.view:", 0) == 0) {
        view_ms_[s.name.substr(15)].push_back(s.ms());
      }
    }
  }

  /// Fold the round's spans into per-round layer figures.
  void collect_spans(std::uint32_t round, const LayerRound& layers) {
    const auto spans = tracer_.round_spans(round);
    std::map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& s : spans) {
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
    double dump = 0;
    double serve = 0;
    double gmon = 0;
    for (const Span& s : spans) {
      if (s.name.rfind("gmetad.poll:", 0) == 0) {
        const std::string node = s.name.substr(12);
        poll_ms_[node].push_back(s.ms());
        const auto it = children.find(s.id);
        poll_self_ms_[node].push_back(
            it == children.end() ? s.ms() : self_ms(s, it->second));
      } else if (s.name.rfind("gmetad.dump:", 0) == 0) {
        dump += s.ms();
      } else if (s.name.rfind("fed.serve:", 0) == 0) {
        serve += s.ms();
      } else if (s.name.rfind("gmon.report:", 0) == 0) {
        gmon += s.ms();
        // A gmond's fed publisher is a fed service too.
        if (kind_ != Kind::tree_xml) serve += s.ms();
      }
    }
    if (kind_ != Kind::dashboard) collect_view_spans(round);
    for (const auto& [layer, ms] : self_by_layer(spans)) self_ms_[layer].push_back(ms);
    dump_ms_.push_back(dump);
    serve_ms_.push_back(serve);
    gmon_ms_.push_back(gmon);
    parse_ms_.push_back(layers.parse_ms);
    parse_mb_s_.push_back(layers.parse_ms > 0
                              ? layers.parse_bytes / 1e6 / (layers.parse_ms / 1e3)
                              : 0);
    apply_ms_.push_back(layers.apply_ms);
    diff_ms_.push_back(layers.diff_ms);
    archive_ms_.push_back(layers.archive_ms);
    prime_ms_.push_back(layers.prime_ms);
    full_responses_ += layers.full_responses;
    fed_polls_ += layers.fed_polls;
    fed_bytes_ += layers.fed_bytes;
  }

  // -------------------------------------------------------------- report

  void report(Outcome& out) {
    out.e2e("round_cpu_ms", median(round_cpu_ms_), "ms");
    out.e2e("page_set_cpu_ms_p50", median(page_cpu_ms_), "ms");
    out.e2e("page_set_cpu_ms_tail", tail(page_cpu_ms_), "ms");
    out.e2e("wire_bytes_per_round", mean(wire_bytes_), "bytes");
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "wall time: freshness p50 %.3f ms, tail %.3f ms; page set "
                  "p50 %.3f ms, tail %.3f ms",
                  median(freshness_ms_), tail(freshness_ms_),
                  median(page_set_ms_), tail(page_set_ms_));
    out.notes.push_back(buf);
    out.notes.push_back("rounds measured: " + std::to_string(rounds_));
    if (kind_ == Kind::dashboard) {
      out.notes.push_back("pages per round: " + std::to_string(pages_.size()) +
                          ", HTTP connections opened: " +
                          std::to_string(reconnects_));
    }
    std::snprintf(buf, sizeof buf,
                  "process CPU per round: polls %.2f ms (of which the "
                  "benchmark's copy of served bytes %.2f ms), page set %.2f ms",
                  median(round_cpu_ms_), median(capture_ms_), median(page_cpu_ms_));
    out.notes.push_back(buf);
    if (!options_.trace) return;

    const auto L = [&](const std::string& name, double v, const char* unit) {
      out.layer(name, v, unit);
    };
    for (const std::string& node : poll_order_) {
      L("gmetad." + node + ".cpu_ms", median(node_cpu_ms_[node]), "ms");
      L("gmetad." + node + ".poll_ms", median(poll_ms_[node]), "ms");
      L("gmetad." + node + ".poll_self_ms", median(poll_self_ms_[node]), "ms");
    }
    L("gmetad.dump_ms", median(dump_ms_), "ms");
    L("xml.parse_ms", median(parse_ms_), "ms");
    L("xml.parse_mb_per_s", median(parse_mb_s_), "MB/s");
    L("fed.serve_ms", median(serve_ms_), "ms");
    L("fed.delta_bytes_per_poll",
      fed_polls_ > 0 ? static_cast<double>(fed_bytes_) / static_cast<double>(fed_polls_) : 0,
      "bytes");
    L("fed.full_responses", static_cast<double>(full_responses_), "count");
    L("fed.diff_ms", median(diff_ms_), "ms");
    L("fed.apply_ms", median(apply_ms_), "ms");
    L("rrd.archive_ms", median(archive_ms_), "ms");
    std::size_t dbs = 0;
    for (const auto& [name, g] : gmetads_) dbs += g->archiver().database_count();
    L("rrd.databases", static_cast<double>(dbs), "count");
    L("render.prime_ms", median(prime_ms_), "ms");
    for (const auto& edge : edges_) {
      const std::string key = edge->parent + "." + edge->child;
      L("net.edge_bytes." + key, edge_bytes_[key] / static_cast<double>(rounds_),
        "bytes");
    }
    for (const auto& [route, v] : exec_ms_) L("query.exec_ms." + route, median(v), "ms");
    for (const auto& [route, v] : cold_ms_) L("http.page_cold_ms." + route, median(v), "ms");
    for (const auto& [route, v] : warm_ms_) L("http.page_warm_ms." + route, median(v), "ms");
    if (kind_ == Kind::dashboard) {
      L("http.revalidate_ms", median(revalidate_ms_), "ms");
      L("http.cache_hits", static_cast<double>(cache_hits_), "count");
      L("http.cache_lookups", static_cast<double>(cache_lookups_), "count");
    }
    for (const char* view : {"meta", "cluster", "host"}) {
      L(std::string("presenter.view_ms.") + view, median(view_ms_[view]), "ms");
      L(std::string("presenter.view_bytes.") + view, median(view_bytes_[view]),
        "bytes");
    }
    L("wall.freshness_ms_p50", median(freshness_ms_), "ms");
    L("wall.freshness_ms_tail", tail(freshness_ms_), "ms");
    L("wall.page_set_ms_p50", median(page_set_ms_), "ms");
    L("wall.page_set_ms_tail", tail(page_set_ms_), "ms");
    L("gmon.report_ms", median(gmon_ms_), "ms");
    L("harness.capture_ms", median(capture_ms_), "ms");
    L("proc.uncharged_cpu_ms", median(uncharged_ms_), "ms");
    L("trace.round_cpu_ms", median(traced_cpu_ms_), "ms");
    L("trace.overhead_ms", median(traced_cpu_ms_) - median(untraced_cpu_ms_), "ms");
    for (const auto& [layer, v] : self_ms_) {
      std::snprintf(buf, sizeof buf, "self time %-18s %9.3f ms/round",
                    layer.c_str(), median(v));
      out.notes.push_back(buf);
    }
  }

  Kind kind_;
  const Options& options_;
  Tracer& tracer_;
  gmetad::TestbedSpec spec_;
  sim::SimClock clock_;
  net::InMemTransport fabric_;
  std::map<std::string, std::unique_ptr<gmon::PseudoGmond>> clusters_;
  std::map<std::string, std::size_t> down_;
  std::map<std::string, std::unique_ptr<Gmetad>> gmetads_;
  std::vector<std::unique_ptr<Edge>> edges_;
  std::vector<std::string> poll_order_;
  std::map<std::string, std::unique_ptr<gmetad::Archiver>> replay_archivers_;

  // Pages.
  std::string view_cluster_;
  std::string view_host_;
  std::vector<std::pair<std::string, std::string>> host_pages_;
  SummaryInfo last_meta_total_;
  std::size_t last_cluster_hosts_ = 0;
  std::string last_host_name_;
  Fold root_fold_;
  Fold prev_root_fold_;  ///< the previous round's root_fold_
  net::TcpTransport tcp_;
  std::unique_ptr<http::GatewayServer> server_;
  std::unique_ptr<net::Stream> client_;
  std::uint64_t reconnects_ = 0;
  std::vector<Page> pages_;
  std::vector<std::string> bodies_;

  // Samples.
  std::uint64_t rounds_ = 0;
  std::atomic<std::int64_t> capture_ns_{0};  ///< copying served bytes, this round
  std::vector<double> round_cpu_ms_, capture_ms_, traced_cpu_ms_, untraced_cpu_ms_,
      uncharged_ms_, page_cpu_ms_, freshness_ms_, page_set_ms_, wire_bytes_;
  std::map<std::string, std::vector<double>> node_cpu_ms_, poll_ms_,
      poll_self_ms_, view_ms_, view_bytes_, cold_ms_, warm_ms_, exec_ms_,
      self_ms_;
  std::map<std::string, double> edge_bytes_;
  std::vector<double> dump_ms_, serve_ms_, gmon_ms_, parse_ms_, parse_mb_s_,
      apply_ms_, diff_ms_, archive_ms_, prime_ms_, revalidate_ms_;
  std::uint64_t full_responses_ = 0, fed_polls_ = 0, fed_bytes_ = 0;
  std::uint64_t cache_hits_ = 0, cache_lookups_ = 0;
};

}  // namespace

Outcome run_tree(const Options& options) {
  const Kind kind = options.workload == "tree_xml"     ? Kind::tree_xml
                    : options.workload == "tree_delta" ? Kind::tree_delta
                                                       : Kind::dashboard;
  Outcome out;
  Tracer tracer;
  // Set up several times; the last tree is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Tree> tree;
  for (std::size_t i = 0; i < kSetups; ++i) {
    tree.reset();
    release_free_memory();
    const std::int64_t t0 = process_cpu_ns();
    tree = std::make_unique<Tree>(kind, options, tracer);
    const bool ok = tree->warm_up(out);
    setup_s.push_back(static_cast<double>(process_cpu_ns() - t0) / 1e9);
    if (!ok) return out;
  }
  out.e2e("setup_s", median(setup_s), "s");
  tree->measure(options.seconds, out);
  out.e2e("rss_mb", peak_rss_mb(), "MiB");
  return out;
}

}  // namespace perfbench
