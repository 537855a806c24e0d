// The membership workload: gossip agents only (src/gossip), at a size in
// the hundreds, with the shipped agent settings of a gmetad (2 s rounds,
// fanout 3, t_fail 20 s, t_cleanup 20 s, binary digest deltas) and
// digests piggybacked on a carrier, as when they ride a gmetad pair's
// federation stream.
//
// After the group has joined, the run follows a fixed churn cycle: one
// seed-chosen member crashes at the start of every cycle and restarts
// part-way through it.  Each gossip round is followed by the page set —
// the membership view (the table /api/v1/members renders) read from a
// fixed set of observers — and by the checks:
//   * every live member convicts the crashed one (SUSPECT or worse)
//     within t_fail plus kDetectSlackRounds rounds, checked while it is
//     still down;
//   * every live member sees it ALIVE again before the cycle ends (the
//     rounds this takes are reported as gossip.rejoin_rounds);
//   * observers never see a live member as failed, and at the end of
//     every cycle every member sees every member ALIVE.
// Runs measure whole cycles, so every run does the same mix of rounds.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "gossip/agent.hpp"
#include "net/inmem.hpp"
#include "sim/sim_clock.hpp"

namespace perfbench {
namespace {

using namespace ganglia;

constexpr TimeUs kIntervalUs = 2 * kMicrosPerSecond;
constexpr TimeUs kTFailUs = 20 * kMicrosPerSecond;
constexpr TimeUs kTCleanupUs = 20 * kMicrosPerSecond;
constexpr std::size_t kFanout = 3;
constexpr int kCycleRounds = 40;
constexpr int kRestartRound = 16;
constexpr int kDetectSlackRounds = 5;
constexpr int kTFailRounds = static_cast<int>(kTFailUs / kIntervalUs);
// The conviction deadline falls before the restart: a restarted member's
// stale rows would otherwise let a detector that never convicts pass.
static_assert(kTFailRounds + kDetectSlackRounds < kRestartRound);
constexpr int kJoinBoundRounds = 200;
constexpr int kSteadyRounds = 5;
constexpr std::size_t kObservers = 32;
constexpr std::size_t kSetups = 5;

class Group {
 public:
  Group(std::size_t members, std::uint64_t seed, Tracer& tracer)
      : tracer_(tracer), seed_(seed) {
    for (std::size_t i = 0; i < members; ++i) {
      bound_.push_back(std::make_unique<net::BoundTransport>(fabric_, address(i)));
      agents_.push_back(make_agent(i));
      alive_.push_back(true);
      baseline_.emplace_back();
      register_service(i);
    }
  }

  static std::string id(std::size_t i) { return "gm" + std::to_string(i); }
  static std::string address(std::size_t i) { return id(i) + ":8654"; }

  std::size_t size() const { return agents_.size(); }
  bool alive(std::size_t i) const { return alive_[i]; }
  gossip::Agent& agent(std::size_t i) { return *agents_[i]; }

  void crash(std::size_t i) {
    alive_[i] = false;
    fabric_.unregister_service(address(i));
  }
  void restart(std::size_t i) {
    agents_[i] = make_agent(i);
    baseline_[i] = gossip::AgentStats{};
    alive_[i] = true;
    register_service(i);
  }

  /// One gossip interval: advance time, tick every live member.
  void round(std::uint64_t parent_span) {
    clock_.advance_us(kIntervalUs);
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      if (!alive_[i]) continue;
      Tracer::Scope span(tracer_, "gossip.tick:" + id(i), parent_span);
      tracer_.set_active(span.id());
      agents_[i]->tick();
    }
    tracer_.set_active(0);
  }

  /// Counter growth since the previous call, summed over live agents.
  gossip::AgentStats take_deltas() {
    gossip::AgentStats sum;
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      if (!alive_[i]) continue;
      const gossip::AgentStats now = agents_[i]->stats();
      const gossip::AgentStats& was = baseline_[i];
      sum.bytes_out += now.bytes_out - was.bytes_out;
      sum.digest_rows_sent += now.digest_rows_sent - was.digest_rows_sent;
      sum.digest_rows_suppressed +=
          now.digest_rows_suppressed - was.digest_rows_suppressed;
      sum.full_resyncs += now.full_resyncs - was.full_resyncs;
      baseline_[i] = now;
    }
    return sum;
  }

  /// Does live member `i` hold `j` in state ALIVE?
  bool sees_alive(std::size_t i, std::size_t j) const {
    const auto entry = agents_[i]->member(id(j));
    return entry && entry->state == gossip::MemberState::alive;
  }
  /// Has live member `i` convicted `j` (SUSPECT, DEAD, LEFT or removed)?
  bool sees_failed(std::size_t i, std::size_t j) const {
    const auto entry = agents_[i]->member(id(j));
    return !entry || entry->state != gossip::MemberState::alive;
  }

 private:
  std::unique_ptr<gossip::Agent> make_agent(std::size_t i) {
    gossip::AgentOptions opts;
    opts.id = id(i);
    opts.address = address(i);
    if (i != 0) opts.seeds = {address(0)};
    opts.interval_us = kIntervalUs;
    opts.fanout = kFanout;
    opts.t_fail_us = kTFailUs;
    opts.t_cleanup_us = kTCleanupUs;
    opts.connect_timeout_us = 10 * kMicrosPerSecond;
    opts.delta = true;
    opts.rng_seed = SplitMix64(seed_ * 0x9e3779b97f4a7c15ULL + i).next();
    // The metadata block a federated gmetad advertises.
    opts.meta["source"] = id(i);
    opts.meta["xml"] = id(i) + ":8651";
    opts.meta["fed"] = id(i) + ":8655";
    opts.meta["authority"] = "gmetad://" + id(i) + ".example:8651/";
    auto agent = std::make_unique<gossip::Agent>(std::move(opts), *bound_[i], clock_);
    // The carrier stands in for an open federation stream: the digest lands
    // in the target's receiver directly.  A crashed target's stream is
    // broken, so the agent falls back to dialling, which is refused.
    agent->set_carrier([this](const std::string& peer, const std::string& payload)
                           -> std::optional<Result<std::string>> {
      for (std::size_t j = 0; j < agents_.size(); ++j) {
        if (address(j) != peer) continue;
        if (!alive_[j]) return Err(Errc::closed, "peer is down");
        Tracer::Scope span(tracer_, "gossip.serve:" + id(j), tracer_.active());
        return agents_[j]->handle_digest_payload(payload);
      }
      return std::nullopt;
    });
    return agent;
  }

  void register_service(std::size_t i) {
    fabric_.register_service(
        address(i), [this, i, inner = agents_[i]->service()](std::string_view req) {
          Tracer::Scope span(tracer_, "gossip.serve:" + id(i), tracer_.active());
          return inner(req);
        });
  }

  Tracer& tracer_;
  std::uint64_t seed_;
  sim::SimClock clock_;
  net::InMemTransport fabric_;
  std::vector<std::unique_ptr<net::BoundTransport>> bound_;
  std::vector<std::unique_ptr<gossip::Agent>> agents_;
  std::vector<bool> alive_;
  std::vector<gossip::AgentStats> baseline_;
};

/// Every member sees every member ALIVE.
bool all_see_all(Group& g) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g.agent(i).alive_count() != g.size()) return false;
  }
  return true;
}

}  // namespace

Outcome run_membership(const Options& options) {
  Outcome out;
  Tracer tracer;
  const std::size_t members = options.tiny ? 16 : 128;

  // Set-up: build the group and gossip until everyone knows everyone,
  // plus a few steady rounds so digest sessions are established.
  std::vector<double> setup_s;
  std::unique_ptr<Group> group;
  for (std::size_t s = 0; s < kSetups; ++s) {
    group.reset();
    release_free_memory();
    const std::int64_t t0 = process_cpu_ns();
    group = std::make_unique<Group>(members, options.seed, tracer);
    int rounds = 0;
    while (!all_see_all(*group) && rounds < kJoinBoundRounds) {
      group->round(0);
      ++rounds;
    }
    for (int k = 0; k < kSteadyRounds; ++k) group->round(0);
    setup_s.push_back(static_cast<double>(process_cpu_ns() - t0) / 1e9);
    if (!all_see_all(*group)) {
      out.problem("warm-up: members do not all see each other after " +
                  std::to_string(rounds) + " rounds");
      return out;
    }
  }
  out.e2e("setup_s", median(setup_s), "s");
  (void)group->take_deltas();

  Rng rng(SplitMix64(options.seed * 0x51ed270b27f1ULL + 5).next());
  std::vector<std::size_t> observers;
  for (std::size_t k = 0; k < std::min(kObservers, members); ++k) {
    observers.push_back(1 + rng.next_below(static_cast<std::uint32_t>(members - 1)));
  }

  std::vector<double> cpu_ms, wall_ms, page_ms, page_cpu_ms, bytes, tick_ms, traced_cpu,
      untraced_cpu, rows_sent, rows_suppressed, resyncs, detect_rounds,
      rejoin_rounds;
  std::map<std::string, std::vector<double>> self_ms;
  std::uint32_t round_no = 0;
  int cycles = 0;
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (wall_ns() < deadline || cycles == 0) {
    ++cycles;
    // The victim: never member 0 (the bootstrap seed) nor an observer.
    std::size_t victim = 0;
    while (victim == 0 ||
           std::find(observers.begin(), observers.end(), victim) != observers.end()) {
      victim = 1 + rng.next_below(static_cast<std::uint32_t>(members - 1));
    }
    const bool fake_crash = options.perturb == Perturb::unconvicted_crash;
    const bool skip_restart = options.perturb == Perturb::restart_not_seen;
    if (!fake_crash) group->crash(victim);
    int detected_at = -1;
    int rejoined_at = -1;
    for (int r = 1; r <= kCycleRounds; ++r) {
      ++round_no;
      const bool traced = options.trace && round_no % 2 == 0;
      tracer.set_round(round_no);
      tracer.set_enabled(traced);
      if (r == kRestartRound && !skip_restart && !fake_crash) group->restart(victim);

      const std::int64_t cpu0 = process_cpu_ns();
      const std::int64_t w0 = wall_ns();
      {
        Tracer::Scope span(tracer, "round", 0);
        group->round(span.id());
      }
      const std::int64_t w1 = wall_ns();
      const std::int64_t cpu1 = process_cpu_ns();
      for (std::size_t i = 0; i < group->size(); ++i) out.attempted += group->alive(i) ? 1 : 0;

      // Page set: the membership view of each observer.
      std::vector<std::vector<gossip::MemberEntry>> views;
      {
        Tracer::Scope span(tracer, "membership.view", 0);
        for (const std::size_t o : observers) views.push_back(group->agent(o).members());
      }
      const std::int64_t w2 = wall_ns();
      const std::int64_t cpu2 = process_cpu_ns();
      out.attempted += observers.size();
      tracer.set_enabled(false);

      cpu_ms.push_back(ns_to_ms(cpu1 - cpu0));
      (traced ? traced_cpu : untraced_cpu).push_back(ns_to_ms(cpu1 - cpu0));
      wall_ms.push_back(ns_to_ms(w1 - w0));
      page_ms.push_back(ns_to_ms(w2 - w1));
      page_cpu_ms.push_back(ns_to_ms(cpu2 - cpu1));
      const gossip::AgentStats d = group->take_deltas();
      bytes.push_back(static_cast<double>(d.bytes_out));
      rows_sent.push_back(static_cast<double>(d.digest_rows_sent));
      rows_suppressed.push_back(static_cast<double>(d.digest_rows_suppressed));
      resyncs.push_back(static_cast<double>(d.full_resyncs));

      // Checks.  Observers: every live member other than the victim ALIVE.
      const bool victim_down = r < kRestartRound || skip_restart || fake_crash;
      for (std::size_t v = 0; v < views.size(); ++v) {
        std::size_t alive_seen = 0;
        for (const gossip::MemberEntry& e : views[v]) {
          if (e.state == gossip::MemberState::alive && e.id != Group::id(victim)) {
            ++alive_seen;
          }
        }
        if (alive_seen != members - 1) {
          out.problem("round " + std::to_string(round_no) + ": observer " +
                      Group::id(observers[v]) + " sees " +
                      std::to_string(alive_seen) + " of " +
                      std::to_string(members - 1) + " live members ALIVE");
        }
      }
      // Nobody can convict before t_fail has passed since the crash; the
      // early_conviction fault expects it one round sooner.
      const int detect_deadline = options.perturb == Perturb::early_conviction
                                      ? kTFailRounds - 1
                                      : kTFailRounds + kDetectSlackRounds;
      if (r <= detect_deadline && detected_at < 0) {
        bool all = true;
        for (std::size_t i = 0; i < group->size() && all; ++i) {
          if (group->alive(i) && i != victim) all = group->sees_failed(i, victim);
        }
        if (all) detected_at = r;
        if (!all && r == detect_deadline) {
          out.problem("cycle " + std::to_string(cycles) + ": crash of " +
                      Group::id(victim) + " not convicted by every member within " +
                      std::to_string(r) + " rounds");
        }
      }
      if (r >= kRestartRound && rejoined_at < 0) {
        bool all = true;
        for (std::size_t i = 0; i < group->size() && all; ++i) {
          if (group->alive(i) && i != victim) all = group->sees_alive(i, victim);
        }
        if (all && !victim_down) rejoined_at = r;
        if (rejoined_at < 0 && r == kCycleRounds) {
          out.problem("cycle " + std::to_string(cycles) + ": " + Group::id(victim) +
                      " not seen ALIVE by every member within " +
                      std::to_string(kCycleRounds - kRestartRound) +
                      " rounds of its restart");
        }
      }
      if (traced) {
        const auto spans = tracer.round_spans(round_no);
        double ticks = 0;
        for (const Span& s : spans) {
          if (s.name.rfind("gossip.tick:", 0) == 0) ticks += s.ms();
        }
        tick_ms.push_back(ticks);
        for (const auto& [layer, ms] : self_by_layer(spans)) self_ms[layer].push_back(ms);
      }
    }
    if (detected_at > 0) detect_rounds.push_back(detected_at);
    if (rejoined_at > 0) rejoin_rounds.push_back(rejoined_at - kRestartRound);
    if (!all_see_all(*group)) {
      out.problem("cycle " + std::to_string(cycles) +
                  " end: not every member sees every member ALIVE");
    }
    if (!out.correct() && options.perturb == Perturb::none) break;
  }

  out.e2e("round_cpu_ms", median(cpu_ms), "ms");
  out.e2e("page_set_cpu_ms_p50", median(page_cpu_ms), "ms");
  out.e2e("page_set_cpu_ms_tail", tail(page_cpu_ms), "ms");
  out.e2e("wire_bytes_per_round", mean(bytes), "bytes");
  out.e2e("rss_mb", peak_rss_mb(), "MiB");
  char line[160];
  std::snprintf(line, sizeof line,
                "wall time: round (freshness) p50 %.3f ms, tail %.3f ms; page "
                "set p50 %.3f ms, tail %.3f ms",
                median(wall_ms), tail(wall_ms), median(page_ms), tail(page_ms));
  out.notes.push_back(line);
  out.notes.push_back("members " + std::to_string(members) + ", cycles " +
                      std::to_string(cycles) + ", rounds " +
                      std::to_string(round_no));
  if (!detect_rounds.empty() && !rejoin_rounds.empty()) {
    std::snprintf(line, sizeof line,
                  "crash convicted by every member after %.0f-%.0f rounds "
                  "(deadline %d); restart seen ALIVE after %.0f-%.0f rounds",
                  *std::min_element(detect_rounds.begin(), detect_rounds.end()),
                  *std::max_element(detect_rounds.begin(), detect_rounds.end()),
                  kTFailRounds + kDetectSlackRounds,
                  *std::min_element(rejoin_rounds.begin(), rejoin_rounds.end()),
                  *std::max_element(rejoin_rounds.begin(), rejoin_rounds.end()));
    out.notes.push_back(line);
  }
  if (options.trace) {
    out.layer("gossip.tick_ms", median(tick_ms), "ms");
    out.layer("gossip.bytes_per_member_round",
              mean(bytes) / static_cast<double>(members), "bytes");
    out.layer("gossip.rows_sent", mean(rows_sent), "count");
    out.layer("gossip.rows_suppressed", mean(rows_suppressed), "count");
    out.layer("gossip.full_resyncs", mean(resyncs), "count");
    out.layer("gossip.detect_rounds", median(detect_rounds), "count");
    out.layer("gossip.rejoin_rounds", median(rejoin_rounds), "count");
    out.layer("wall.freshness_ms_p50", median(wall_ms), "ms");
    out.layer("wall.freshness_ms_tail", tail(wall_ms), "ms");
    out.layer("wall.page_set_ms_p50", median(page_ms), "ms");
    out.layer("wall.page_set_ms_tail", tail(page_ms), "ms");
    out.layer("trace.round_cpu_ms", median(traced_cpu), "ms");
    out.layer("trace.overhead_ms", median(traced_cpu) - median(untraced_cpu), "ms");
    for (const auto& [layer, v] : self_ms) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "self time %-18s %9.3f ms/round",
                    layer.c_str(), median(v));
      out.notes.push_back(buf);
    }
    if (!options.spans_dir.empty()) {
      const std::string path = options.spans_dir + "/spans-membership-seed" +
                               std::to_string(options.seed) + ".tsv";
      out.notes.push_back(tracer.write(path) ? "spans written to " + path
                                             : "could not write " + path);
    }
  }
  return out;
}

}  // namespace perfbench
