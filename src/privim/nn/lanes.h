// Eight-lane float vectors for the dense kernels (tensor.cpp) and the
// attention kernels (infer/program.cpp).
//
// GCC/Clang vector extensions, lowered to one 256-bit register in the AVX2
// clone of a PRIVIM_VEC_CLONES kernel and to two 128-bit halves elsewhere
// (the default clone, sanitizer and Clang builds). Every helper is
// always-inline, so it compiles with the target of the kernel it lands in,
// and takes its vectors by pointer: passing them by value would change the
// ABI between the target clones.

#ifndef PRIVIM_NN_LANES_H_
#define PRIVIM_NN_LANES_H_

#include <cstdint>
#include <cstring>

#if defined(__GNUC__) || defined(__clang__)
#define PRIVIM_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define PRIVIM_ALWAYS_INLINE inline
#endif

namespace privim {
namespace nn {

// Eight float lanes, their bit patterns, the low half a broadcast starts
// from, and the widening to double, accumulated in two four-lane halves.
typedef float Lanes8 __attribute__((vector_size(32)));
typedef uint32_t Bits8 __attribute__((vector_size(32)));
typedef float Lanes4 __attribute__((vector_size(16)));
typedef double Doubles8 __attribute__((vector_size(64)));
typedef double Doubles4 __attribute__((vector_size(32)));

// Unaligned lane loads and stores.
PRIVIM_ALWAYS_INLINE void LoadLanes(const float* p, Lanes8* v) {
  std::memcpy(v, p, sizeof(*v));
}

PRIVIM_ALWAYS_INLINE void StoreLanes(const Lanes8& v, float* p) {
  std::memcpy(p, &v, sizeof(v));
}

// Every lane = *p: one float loaded into the low lane and shuffled across.
// (A brace-initialized splat of the value makes GCC 12 assemble it lane by
// lane through the stack.)
PRIVIM_ALWAYS_INLINE void Broadcast(const float* p, Lanes8* v) {
  Lanes4 low = Lanes4{};
  std::memcpy(&low, p, sizeof(float));
  *v = __builtin_shufflevector(low, low, 0, 0, 0, 0, 0, 0, 0, 0);
}

// Lanes [0, count) from p, +0 above; reads nothing past p[count - 1].
PRIVIM_ALWAYS_INLINE void LoadFirstLanes(const float* p, int64_t count,
                                         Lanes8* v) {
  *v = Lanes8{};
  std::memcpy(v, p, static_cast<size_t>(count) * sizeof(float));
}

// Stores lanes [0, count) of v; writes nothing past p[count - 1].
PRIVIM_ALWAYS_INLINE void StoreFirstLanes(const Lanes8& v, int64_t count,
                                          float* p) {
  std::memcpy(p, &v, static_cast<size_t>(count) * sizeof(float));
}

// blk[r] = the eight lanes at rows[r] + offset, for r = 0..7. Unrolled
// here, so the compiler loads straight into registers instead of turning
// the loop into a copy through the stack.
PRIVIM_ALWAYS_INLINE void LoadBlock(const float* const* rows, int64_t offset,
                                    Lanes8* blk) {
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) LoadLanes(rows[r] + offset, &blk[r]);
}

// LoadBlock of the first `count` lanes of each row, +0 above.
PRIVIM_ALWAYS_INLINE void LoadFirstBlock(const float* const* rows,
                                         int64_t offset, int64_t count,
                                         Lanes8* blk) {
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) LoadFirstLanes(rows[r] + offset, count, &blk[r]);
}

// In-place 8 x 8 transpose: afterwards r[k] holds lane k of every input
// row, r[k][i] = r_in[i][k]. Three rounds of two-input shuffles (the
// unpack, shuffle and 128-bit permute ladder on AVX2); every element stays
// in registers and no value is computed, only moved.
PRIVIM_ALWAYS_INLINE void Transpose8x8(Lanes8* r) {
  Lanes8 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = __builtin_shufflevector(r[i], r[i + 1], 0, 8, 1, 9, 4, 12, 5, 13);
    t[i + 1] =
        __builtin_shufflevector(r[i], r[i + 1], 2, 10, 3, 11, 6, 14, 7, 15);
  }
  Lanes8 s[8];
  for (int i = 0; i < 8; i += 4) {
    for (int h = 0; h < 2; ++h) {
      s[i + 2 * h] = __builtin_shufflevector(t[i + h], t[i + h + 2], 0, 1, 8,
                                             9, 4, 5, 12, 13);
      s[i + 2 * h + 1] = __builtin_shufflevector(t[i + h], t[i + h + 2], 2, 3,
                                                 10, 11, 6, 7, 14, 15);
    }
  }
  for (int i = 0; i < 4; ++i) {
    r[i] = __builtin_shufflevector(s[i], s[i + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    r[i + 4] =
        __builtin_shufflevector(s[i], s[i + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

}  // namespace nn
}  // namespace privim

#endif  // PRIVIM_NN_LANES_H_
