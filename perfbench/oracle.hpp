#pragma once
// Delivery recording and the brute-force delivery oracle.
//
// Every delivery the system reports is packed into one 64-bit key
// (event seq, subscriber host, subscription iid) plus its hop count and
// virtual latency. After the timed region the benchmark enumerates, with
// Subscription::matches over the subscriptions live at publish time, the
// keys that must (expected) and may (allowed) be delivered, and compares
// the two multisets exactly.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/delivery_sink.hpp"

namespace hsbench {

// Key layout: 24 bits event seq | 16 bits subscriber host | 24 bits iid.
inline constexpr std::uint64_t kSeqLimit = 1ull << 24;
inline constexpr std::uint64_t kHostLimit = 1ull << 16;
inline constexpr std::uint64_t kIidLimit = 1ull << 24;

inline std::uint64_t delivery_key(std::uint64_t seq, std::uint64_t host,
                                  std::uint64_t iid) {
  return (seq << 40) | (host << 24) | iid;
}

class DeliveryRecorder final : public hypersub::core::DeliverySink {
 public:
  void on_delivery(const hypersub::core::Delivery& d) override {
    if (d.event_seq >= kSeqLimit || d.subscriber >= kHostLimit ||
        d.iid >= kIidLimit) {
      ++unpackable_;
      return;
    }
    keys_.push_back(delivery_key(d.event_seq, d.subscriber, d.iid));
    hops_.push_back(std::uint8_t(std::min(d.hops, 255)));
    latency_ms_.push_back(float(d.latency_ms));
  }
  void reset() override {
    keys_.clear();
    hops_.clear();
    latency_ms_.clear();
    unpackable_ = 0;
  }

  const std::vector<std::uint64_t>& keys() const noexcept { return keys_; }
  const std::vector<std::uint8_t>& hops() const noexcept { return hops_; }
  const std::vector<float>& latency_ms() const noexcept { return latency_ms_; }
  std::uint64_t unpackable() const noexcept { return unpackable_; }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint8_t> hops_;
  std::vector<float> latency_ms_;
  std::uint64_t unpackable_ = 0;
};

struct Comparison {
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t missed = 0;     ///< expected but never delivered
  std::uint64_t extra = 0;      ///< delivered but not allowed
  std::uint64_t duplicate = 0;  ///< delivered more than once
  std::uint64_t hash = 0;       ///< FNV-1a over the sorted delivered keys
};

/// Compare delivered keys against the oracle. `expected` must be a subset
/// of `allowed`; both are sorted and duplicate-free. Consumes `delivered`.
inline Comparison compare_deliveries(
    std::vector<std::uint64_t> delivered,
    const std::vector<std::uint64_t>& expected,
    const std::vector<std::uint64_t>& allowed) {
  Comparison c;
  c.expected = expected.size();
  c.delivered = delivered.size();
  std::sort(delivered.begin(), delivered.end());
  c.hash = 1469598103934665603ull;
  for (const std::uint64_t k : delivered) {
    for (int b = 0; b < 8; ++b) {
      c.hash ^= (k >> (8 * b)) & 0xff;
      c.hash *= 1099511628211ull;
    }
  }
  const auto last = std::unique(delivered.begin(), delivered.end());
  c.duplicate = std::uint64_t(delivered.end() - last);
  delivered.erase(last, delivered.end());
  std::vector<std::uint64_t> diff;
  std::set_difference(expected.begin(), expected.end(), delivered.begin(),
                      delivered.end(), std::back_inserter(diff));
  c.missed = diff.size();
  diff.clear();
  std::set_difference(delivered.begin(), delivered.end(), allowed.begin(),
                      allowed.end(), std::back_inserter(diff));
  c.extra = diff.size();
  return c;
}

/// Nearest-rank percentile (q in (0, 1]) of continuous samples.
inline double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank =
      std::size_t(std::ceil(q * double(v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(rank), v.end());
  return double(v[rank]);
}

/// Percentile of integer hop counts as grouped data: each count h spreads
/// uniformly over [h - 0.5, h + 0.5), so the result moves smoothly with the
/// distribution instead of jumping between whole hops.
inline double grouped_percentile(const std::vector<std::uint8_t>& hops,
                                 double q) {
  if (hops.empty()) return 0.0;
  std::vector<std::uint64_t> count(256, 0);
  for (const std::uint8_t h : hops) ++count[h];
  const double target = q * double(hops.size());
  double below = 0.0;
  for (std::size_t h = 0; h < count.size(); ++h) {
    const double c = double(count[h]);
    if (c > 0.0 && below + c >= target) {
      return double(h) - 0.5 + (target - below) / c;
    }
    below += c;
  }
  return 255.0;
}

}  // namespace hsbench
