#pragma once
// Double and index vectors for the ml kernels (the SMO sweep in svr.cpp, the
// distance accumulation in knn.cpp). They use the GCC/Clang vector extension
// that sim/lane_block.hpp uses for lane words, at the widest width the build
// ISA holds in one register: wider types would be split into pieces, and
// the compiler turns split comparisons into scalar branches. Every lane
// operation is the IEEE operation of its scalar counterpart, so results do
// not depend on the width.

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ffr::ml::simd {

#if defined(__AVX512F__)
inline constexpr std::size_t kLanes = 8;
#elif defined(__AVX2__)
inline constexpr std::size_t kLanes = 4;
#else
inline constexpr std::size_t kLanes = 2;
#endif

typedef double Vec __attribute__((vector_size(kLanes * sizeof(double))));
typedef std::int64_t IndexVec
    __attribute__((vector_size(kLanes * sizeof(std::int64_t))));

inline Vec splat(double v) {
  Vec out = {};
  for (std::size_t l = 0; l < kLanes; ++l) out[l] = v;
  return out;
}

/// Lane l holds `first + l`.
inline IndexVec iota(std::int64_t first) {
  IndexVec out = {};
  for (std::size_t l = 0; l < kLanes; ++l) {
    out[l] = first + static_cast<std::int64_t>(l);
  }
  return out;
}

inline Vec load(const double* p) {
  Vec v = {};
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, Vec v) { std::memcpy(p, &v, sizeof v); }

/// Lane-wise std::abs: clears the sign bit.
inline Vec abs(Vec v) {
  return reinterpret_cast<Vec>(reinterpret_cast<IndexVec>(v) & INT64_MAX);
}

/// `n` rounded up to a whole number of vectors.
inline constexpr std::size_t round_up(std::size_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

}  // namespace ffr::ml::simd
