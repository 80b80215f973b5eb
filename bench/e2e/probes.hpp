// Machine and kernel probes of the traced run (README.md): a timed FMA loop
// and a STREAM-style triad give the machine's compute and memory ceilings;
// rFFT-2D and the generator's SGEMM shapes are timed through the public
// kernel entry points so their rates read as a share of those ceilings.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

struct MachinePeak {
  double fma_gflops_1core = 0.0;
  double fma_gflops_all = 0.0;  ///< `threads` concurrent FMA loops
  int threads = 1;
  double triad_gbs = 0.0;
  std::size_t triad_array_bytes = 0;
};

/// `seconds` bounds each timed loop.
MachinePeak probe_machine(int threads, double seconds);

struct KernelRate {
  double seconds_per_call = 0.0;
  double gflops = 0.0;
};

/// fft::rfft_2d on an n x n real grid; flops = 2.5 * n^2 * log2(n^2).
KernelRate probe_rfft(int n, double seconds);

/// nn::sgemm over the forward GEMMs of a Generator of this image size and
/// width (the conv-as-GEMM shapes Generator::infer runs); flops = 2*M*N*K
/// summed over the shapes, per call of the whole set.
KernelRate probe_generator_sgemm(int image_size, int base_channels, double seconds);

}  // namespace e2e
