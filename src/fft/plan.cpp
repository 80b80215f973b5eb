#include "fft/plan.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/error.hpp"
#include "fft/fft.hpp"
#include "obs/metrics.hpp"

namespace ganopc::fft {

FftPlan::FftPlan(std::size_t n_) : n(n_) {
  GANOPC_CHECK_MSG(is_pow2(n), "FFT plan size must be a power of two");
  bitrev.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev[i] = static_cast<std::uint32_t>(j);
  }
  if (n > 1) {
    stage_twiddle.resize(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      for (std::size_t k = 0; k < half; ++k) {
        const double ang = -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(len);
        stage_twiddle[half - 1 + k] = {static_cast<float>(std::cos(ang)),
                                       static_cast<float>(std::sin(ang))};
      }
    }
  }
}

const FftPlan& plan_for(std::size_t n) {
  static std::mutex mutex;
  // Intentionally leaked: thread-pool workers may still run transforms while
  // static destructors execute, so plans must outlive every static object.
  static auto* cache = new std::unordered_map<std::size_t, std::unique_ptr<FftPlan>>();
  std::lock_guard lock(mutex);
  auto& slot = (*cache)[n];
  const bool miss = !slot;
  if (miss) slot = std::make_unique<FftPlan>(n);
  if (obs::metrics_enabled()) {
    static obs::Counter& hits = obs::counter("fft.plan_cache.hits");
    static obs::Counter& misses = obs::counter("fft.plan_cache.misses");
    (miss ? misses : hits).inc();
  }
  return *slot;
}

}  // namespace ganopc::fft
