// liplib/support/metrics.hpp
//
// Deterministic metric primitives for fleet-level telemetry: a counter, a
// gauge, and a log2-bucketed histogram of unsigned samples.  Everything
// here is integer-exact and serializes byte-stably through support/json,
// so campaign aggregates that fold thousands of per-job measurements stay
// byte-identical at any worker-thread count (the values are folded from
// the job-index-ordered result vector, never from shared mutable state).
//
// The histogram buckets are powers of two: bucket 0 holds the sample 0,
// bucket b >= 1 holds samples in [2^(b-1), 2^b).  Percentiles are
// nearest-rank over the bucket counts and report the bucket's inclusive
// upper bound — a deterministic over-approximation whose error is bounded
// by the bucket width (exact tracked min/max are reported alongside).
//
// MetricsRegistry names and labels these primitives and exposes them in
// Prometheus text format — the scrapeable face of the serve daemon
// (`metrics` request kind) and the dist coordinator.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "liplib/support/check.hpp"
#include "liplib/support/json.hpp"

namespace liplib::metrics {

/// A monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A last-writer-wins instantaneous value.
class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t delta) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Log2-bucketed histogram of std::uint64_t samples.
class LogHistogram {
 public:
  /// 0 plus one bucket per bit: samples up to 2^63-1... fit bucket 64.
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    total_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
  }

  void merge(const LogHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    if (other.count_ > 0) {
      if (count_ == 0 || other.min_ < min_) min_ = other.min_;
      if (count_ == 0 || other.max_ > max_) max_ = other.max_;
    }
    count_ += other.count_;
    total_ += other.total_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return count_ ? max_ : 0; }
  std::uint64_t bucket(std::size_t b) const { return buckets_[b]; }

  /// Which bucket a sample lands in.
  static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b;  // 0 for v == 0, floor(log2(v)) + 1 otherwise
  }
  /// Inclusive upper bound of a bucket (the value a percentile reports).
  static std::uint64_t bucket_hi(std::size_t b) {
    if (b == 0) return 0;
    if (b >= 64) return ~0ull;
    return (1ull << b) - 1;
  }
  /// Inclusive lower bound of a bucket.
  static std::uint64_t bucket_lo(std::size_t b) {
    return b <= 1 ? b : (1ull << (b - 1));
  }

  /// Nearest-rank percentile (p in [0, 100]): the inclusive upper bound
  /// of the bucket holding the ceil(p/100 * count)-th smallest sample.
  /// p = 0 reports the exact minimum, p = 100 is clamped by the exact
  /// maximum; an empty histogram reports 0.
  std::uint64_t percentile(double p) const {
    LIPLIB_EXPECT(p >= 0 && p <= 100, "percentile must be in [0, 100]");
    if (count_ == 0) return 0;
    if (p <= 0) return min_;
    // ceil(p * count / 100) without floating-point rank drift: percentile
    // arguments are multiples of 0.5 in practice, but guard generally.
    std::uint64_t rank =
        static_cast<std::uint64_t>((p * static_cast<double>(count_) + 99.0) /
                                   100.0);
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b];
      if (seen >= rank) {
        const std::uint64_t hi = bucket_hi(b);
        return hi > max_ ? max_ : hi;
      }
    }
    return max_;
  }

  /// Schema "liplib.loghist/1": count/total/min/max plus the non-empty
  /// buckets ({lo, hi, n}) and the standard percentile ladder.
  Json to_json() const {
    Json buckets = Json::array();
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets_[b] == 0) continue;
      buckets.push(Json::object()
                       .set("lo", bucket_lo(b))
                       .set("hi", bucket_hi(b))
                       .set("n", buckets_[b]));
    }
    Json j = Json::object()
                 .set("schema", "liplib.loghist/1")
                 .set("count", count_)
                 .set("total", total_)
                 .set("min", min())
                 .set("max", max())
                 .set("buckets", std::move(buckets));
    Json pct = Json::object();
    for (const double p : {50.0, 90.0, 99.0}) {
      pct.set("p" + std::to_string(static_cast<int>(p)), percentile(p));
    }
    j.set("percentiles", std::move(pct));
    return j;
  }

  /// Reconstructs a histogram from its to_json() document.  Exact:
  /// every merge-relevant field (bucket counts, count, total, min, max)
  /// round-trips, so from_json(h.to_json()).to_json() is byte-identical
  /// to h.to_json() — the property the distributed aggregate merge
  /// relies on.  Throws ApiError on a malformed or mis-tagged document.
  static LogHistogram from_json(const Json& j) {
    const Json* schema = j.find("schema");
    LIPLIB_EXPECT(schema && schema->is_string() &&
                      schema->as_string() == "liplib.loghist/1",
                  "loghist document missing schema liplib.loghist/1");
    auto uint_of = [&j](const char* key) {
      const Json* f = j.find(key);
      LIPLIB_EXPECT(f && f->is_number(),
                    std::string("loghist field '") + key +
                        "' missing or non-numeric");
      return f->as_uint();
    };
    LogHistogram h;
    h.count_ = uint_of("count");
    h.total_ = uint_of("total");
    h.min_ = uint_of("min");
    h.max_ = uint_of("max");
    const Json* buckets = j.find("buckets");
    LIPLIB_EXPECT(buckets && buckets->is_array(),
                  "loghist document missing 'buckets'");
    std::uint64_t sum = 0;
    for (const Json& b : buckets->elements()) {
      const Json* lo = b.find("lo");
      const Json* n = b.find("n");
      LIPLIB_EXPECT(lo && lo->is_number() && n && n->is_number(),
                    "loghist bucket missing 'lo'/'n'");
      const std::size_t idx = bucket_of(lo->as_uint());
      LIPLIB_EXPECT(bucket_lo(idx) == lo->as_uint(),
                    "loghist bucket 'lo' is not a bucket boundary");
      h.buckets_[idx] += n->as_uint();
      sum += n->as_uint();
    }
    LIPLIB_EXPECT(sum == h.count_,
                  "loghist bucket counts do not sum to 'count'");
    return h;
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// The kind of a metric family.
enum class MetricType { kCounter, kGauge, kHistogram };

/// A named, labelled registry over the three primitives, exposable in
/// Prometheus text format (version 0.0.4 — the serve daemon's `metrics`
/// request kind returns exactly expose_text()).
///
/// Families are created on first use and typed by that use; a later
/// access under a different type throws ApiError.  Children are keyed
/// by their label set (labels are sorted by key internally, so
/// {a=1,b=2} and {b=2,a=1} are the same child).  Every operation —
/// including expose_text() — takes the registry mutex, so concurrent
/// request threads may record while a scraper reads.
///
/// Exposition is deterministic: families sort by name, children by
/// rendered label string, histogram buckets ascending — a registry with
/// the same contents always exposes the same bytes.
class MetricsRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  /// Holds the registry mutex until destroyed, so several reads see one
  /// consistent state for one acquisition (the serve daemon's status
  /// document is read this way).
  class Reader {
   public:
    std::uint64_t counter_value(const std::string& name,
                                const Labels& labels) const {
      const Family* f = r_.find_family_locked(name);
      if (!f) return 0;
      const auto it = f->counters.find(label_key(labels));
      return it == f->counters.end() ? 0 : it->second.value();
    }
    /// Sum of sample counts over every child of a histogram family whose
    /// labels include all of `labels` (exact child when all labels are
    /// given, per-dimension subtotal otherwise).
    std::uint64_t histogram_count(const std::string& name,
                                  const Labels& labels) const {
      const Family* f = r_.find_family_locked(name);
      if (!f) return 0;
      std::uint64_t n = 0;
      for (const auto& [key, h] : f->histograms) {
        bool match = true;
        for (const auto& [lk, lv] : labels) {
          if (key.find(render_label(lk, lv)) == std::string::npos) {
            match = false;
            break;
          }
        }
        if (match) n += h.count();
      }
      return n;
    }

   private:
    friend class MetricsRegistry;
    explicit Reader(const MetricsRegistry& r) : r_(r), lock_(r.mu_) {}
    const MetricsRegistry& r_;
    std::unique_lock<std::mutex> lock_;
  };

  Reader read() const { return Reader(*this); }

  /// Attaches HELP text to a family (creates it with `type` if new).
  void describe(const std::string& name, MetricType type,
                const std::string& help) {
    std::lock_guard<std::mutex> lock(mu_);
    Family& f = family_locked(name, type);
    f.help = help;
  }

  void counter_add(const std::string& name, const Labels& labels,
                   std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    family_locked(name, MetricType::kCounter)
        .counters[label_key(labels)]
        .add(n);
  }

  void gauge_set(const std::string& name, const Labels& labels,
                 std::int64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    family_locked(name, MetricType::kGauge).gauges[label_key(labels)].set(v);
  }

  void gauge_add(const std::string& name, const Labels& labels,
                 std::int64_t delta) {
    std::lock_guard<std::mutex> lock(mu_);
    family_locked(name, MetricType::kGauge)
        .gauges[label_key(labels)]
        .add(delta);
  }

  void observe(const std::string& name, const Labels& labels,
               std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    family_locked(name, MetricType::kHistogram)
        .histograms[label_key(labels)]
        .record(v);
  }

  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels) const {
    return read().counter_value(name, labels);
  }

  std::int64_t gauge_value(const std::string& name,
                           const Labels& labels) const {
    std::lock_guard<std::mutex> lock(mu_);
    const Family* f = find_family_locked(name);
    if (!f) return 0;
    const auto it = f->gauges.find(label_key(labels));
    return it == f->gauges.end() ? 0 : it->second.value();
  }

  std::uint64_t histogram_count(const std::string& name,
                                const Labels& labels) const {
    return read().histogram_count(name, labels);
  }

  /// Prometheus text exposition (content type
  /// "text/plain; version=0.0.4").  Histograms render cumulative
  /// `le`-bucketed series over the non-empty log2 buckets plus "+Inf",
  /// with `_sum` and `_count`.
  std::string expose_text() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto& [name, f] : families_) {
      if (!f.help.empty()) {
        out += "# HELP " + name + " " + f.help + "\n";
      }
      out += "# TYPE " + name + " " + type_name(f.type) + "\n";
      switch (f.type) {
        case MetricType::kCounter:
          for (const auto& [key, c] : f.counters) {
            out += name + key + " " + std::to_string(c.value()) + "\n";
          }
          break;
        case MetricType::kGauge:
          for (const auto& [key, g] : f.gauges) {
            out += name + key + " " + std::to_string(g.value()) + "\n";
          }
          break;
        case MetricType::kHistogram:
          for (const auto& [key, h] : f.histograms) {
            std::uint64_t cum = 0;
            for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
              if (h.bucket(b) == 0) continue;
              cum += h.bucket(b);
              out += name + "_bucket" +
                     with_le(key, std::to_string(LogHistogram::bucket_hi(b))) +
                     " " + std::to_string(cum) + "\n";
            }
            out += name + "_bucket" + with_le(key, "+Inf") + " " +
                   std::to_string(h.count()) + "\n";
            out += name + "_sum" + key + " " + std::to_string(h.total()) +
                   "\n";
            out += name + "_count" + key + " " + std::to_string(h.count()) +
                   "\n";
          }
          break;
      }
    }
    return out;
  }

 private:
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, LogHistogram> histograms;
  };

  static const char* type_name(MetricType t) {
    switch (t) {
      case MetricType::kCounter: return "counter";
      case MetricType::kGauge: return "gauge";
      case MetricType::kHistogram: return "histogram";
    }
    return "untyped";
  }

  static std::string escape_label_value(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
      if (c == '\\') out += "\\\\";
      else if (c == '"') out += "\\\"";
      else if (c == '\n') out += "\\n";
      else out.push_back(c);
    }
    return out;
  }

  static std::string render_label(const std::string& k,
                                  const std::string& v) {
    return k + "=\"" + escape_label_value(v) + "\"";
  }

  /// Canonical child key: `{a="1",b="2"}` with keys sorted, or "" for
  /// the label-free child.
  static std::string label_key(Labels labels) {
    if (labels.empty()) return "";
    std::sort(labels.begin(), labels.end());
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i) out.push_back(',');
      out += render_label(labels[i].first, labels[i].second);
    }
    out.push_back('}');
    return out;
  }

  /// Appends the `le` label to a rendered child key.
  static std::string with_le(const std::string& key, const std::string& le) {
    if (key.empty()) return "{le=\"" + le + "\"}";
    std::string out = key;
    out.pop_back();  // trailing '}'
    out += ",le=\"" + le + "\"}";
    return out;
  }

  Family& family_locked(const std::string& name, MetricType type) {
    auto [it, inserted] = families_.try_emplace(name);
    if (inserted) {
      it->second.type = type;
    } else {
      LIPLIB_EXPECT(it->second.type == type,
                    "metric family '" + name +
                        "' already registered with a different type");
    }
    return it->second;
  }

  const Family* find_family_locked(const std::string& name) const {
    const auto it = families_.find(name);
    return it == families_.end() ? nullptr : &it->second;
  }

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace liplib::metrics
