#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

// ------------------------------------------------------------------ clocks

namespace {
std::int64_t read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t wall_ns() { return read_clock(CLOCK_MONOTONIC); }
std::int64_t process_cpu_ns() { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void release_free_memory() { malloc_trim(0); }

// -------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v) {
  if (v.size() < 40) return median(std::move(v));
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ------------------------------------------------------------------ tracer

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent) {
  if (!enabled()) return 0;
  const std::int64_t now = wall_ns();
  std::lock_guard lock(mutex_);
  const std::uint64_t id = next_id_++;
  Span span;
  span.name = std::move(name);
  span.start_ns = now;
  span.id = id;
  span.parent = parent;
  span.round = round_;
  open_.emplace(id, spans_.size());
  spans_.push_back(std::move(span));
  return id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t now = wall_ns();
  std::lock_guard lock(mutex_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now;
  open_.erase(it);
}

std::vector<Span> Tracer::round_spans(std::uint32_t round) const {
  std::lock_guard lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.round == round && span.end_ns != 0) out.push_back(span);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tround\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%u\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.round,
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double self_ms(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const Span* c : children) {
    const std::int64_t a = std::max(c->start_ns, span.start_ns);
    const std::int64_t b = std::min(c->end_ns, span.end_ns);
    if (b > a) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = -1;
  for (const auto& [a, b] : cover) {
    if (a > run_end) {
      if (run_end > run_start) covered += run_end - run_start;
      run_start = a;
      run_end = b;
    } else {
      run_end = std::max(run_end, b);
    }
  }
  if (run_end > run_start) covered += run_end - run_start;
  return ns_to_ms(span.end_ns - span.start_ns - covered);
}

std::map<std::string, double> self_by_layer(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const std::string layer = s.name.substr(0, s.name.find(':'));
    const auto it = children.find(s.id);
    out[layer] += it == children.end() ? s.ms() : self_ms(s, it->second);
  }
  return out;
}

// -------------------------------------------------------------------- json

const Json* Json::get(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  std::optional<Json> document() {
    Json v;
    if (!value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const unsigned long cp = std::strtoul(
              std::string(s_.substr(pos_, 4)).c_str(), nullptr, 16);
          pos_ += 4;
          out.push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          break;
        }
        default: out.push_back(e); break;
      }
    }
    return false;
  }
  bool value(Json& v, int depth) {
    if (depth > 64) return false;
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.kind = Json::Kind::object;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        Json child;
        if (!value(child, depth + 1)) return false;
        v.fields.emplace_back(std::move(key), std::move(child));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_++] != '}') return false;
        return true;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = Json::Kind::array;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        Json child;
        if (!value(child, depth + 1)) return false;
        v.items.push_back(std::move(child));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_++] != ']') return false;
        return true;
      }
    }
    if (c == '"') {
      v.kind = Json::Kind::string;
      return string(v.str);
    }
    if (literal("true")) {
      v.kind = Json::Kind::boolean;
      v.b = true;
      return true;
    }
    if (literal("false")) {
      v.kind = Json::Kind::boolean;
      return true;
    }
    if (literal("null")) return true;
    const std::string rest(s_.substr(pos_, 64));
    char* end = nullptr;
    v.num = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    v.kind = Json::Kind::number;
    pos_ += static_cast<std::size_t>(end - rest.c_str());
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> parse_json(std::string_view text) {
  return JsonParser(text).document();
}

}  // namespace perfbench
