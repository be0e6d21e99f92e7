#include "core/soa.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/skills.h"
#include "obs/obs.h"
#include "obs/zone.h"
#include "util/logging.h"
#include "util/string_util.h"

// Compile-time ISA selection. -DTDG_SIMD=OFF defines TDG_SOA_FORCE_SCALAR
// and strips the vector paths entirely; otherwise the widest ISA the TU is
// compiled for wins (SSE2 is the x86-64 baseline, so the default build
// always has a 2-lane path; -march=native upgrades to AVX2 where present).
#if !defined(TDG_SOA_FORCE_SCALAR)
#if defined(__AVX2__)
#define TDG_SOA_ISA_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__)
#define TDG_SOA_ISA_SSE2 1
#include <emmintrin.h>
#endif
#endif

namespace tdg::soa {

// ---------------------------------------------------------------------------
// SIMD dispatch
// ---------------------------------------------------------------------------

SimdIsa CompiledSimdIsa() {
#if defined(TDG_SOA_ISA_AVX2)
  return SimdIsa::kAvx2;
#elif defined(TDG_SOA_ISA_SSE2)
  return SimdIsa::kSse2;
#else
  return SimdIsa::kScalar;
#endif
}

int SimdLanes() {
  switch (CompiledSimdIsa()) {
    case SimdIsa::kAvx2:
      return 4;
    case SimdIsa::kSse2:
      return 2;
    case SimdIsa::kScalar:
      return 1;
  }
  return 1;
}

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kSse2:
      return "sse2";
    case SimdIsa::kScalar:
      return "scalar";
  }
  return "scalar";
}

namespace {

bool SimdEnabledFromEnv() {
  const char* env = std::getenv("TDG_SIMD");
  if (env == nullptr) return true;
  std::string_view value(env);
  return !(value == "off" || value == "0" || value == "scalar" ||
           value == "OFF");
}

std::atomic<bool>& SimdRuntimeSwitch() {
  static std::atomic<bool> enabled{SimdEnabledFromEnv()};
  return enabled;
}

}  // namespace

bool SimdEnabled() {
  return CompiledSimdIsa() != SimdIsa::kScalar &&
         SimdRuntimeSwitch().load(std::memory_order_relaxed);
}

void SetSimdEnabledForTest(bool enabled) {
  SimdRuntimeSwitch().store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

namespace {

std::byte* AlignedNew(size_t bytes) {
  return static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t(Arena::kAlignment)));
}

void AlignedDelete(std::byte* p) {
  ::operator delete(p, std::align_val_t(Arena::kAlignment));
}

constexpr size_t kMinBlockBytes = 4096;

constexpr size_t RoundUp(size_t bytes) {
  return (bytes + Arena::kAlignment - 1) & ~(Arena::kAlignment - 1);
}

}  // namespace

Arena::~Arena() {
  for (Block& block : blocks_) AlignedDelete(block.data);
}

void* Arena::AllocBytes(size_t bytes) {
  bytes = RoundUp(bytes);
  // Bump inside the active block, then walk forward through retained blocks
  // (all empty past the active one), then grow geometrically.
  while (active_ < blocks_.size()) {
    Block& block = blocks_[active_];
    if (block.capacity - block.used >= bytes) {
      void* p = block.data + block.used;
      block.used += bytes;
      return p;
    }
    if (active_ + 1 == blocks_.size()) break;
    ++active_;
    TDG_CHECK_EQ(blocks_[active_].used, 0u);
  }
  Block block;
  block.capacity = std::max({bytes, bytes_reserved(), kMinBlockBytes});
  block.data = AlignedNew(block.capacity);
  block.used = bytes;
  blocks_.push_back(block);
  active_ = blocks_.size() - 1;
  return block.data;
}

Arena::Mark Arena::Top() const {
  Mark mark;
  mark.block = active_;
  mark.used = blocks_.empty() ? 0 : blocks_[active_].used;
  return mark;
}

void Arena::Release(const Mark& mark) {
  if (blocks_.empty()) return;
  TDG_CHECK_LT(mark.block, blocks_.size());
  for (size_t b = mark.block + 1; b < blocks_.size(); ++b) {
    blocks_[b].used = 0;
  }
  active_ = mark.block;
  blocks_[active_].used = mark.used;
}

void Arena::Reset() {
  if (blocks_.size() > 1) {
    // Coalesce: one block sized for everything seen so far, so the steady
    // state bump-allocates from a single contiguous region.
    size_t total = bytes_reserved();
    for (Block& block : blocks_) AlignedDelete(block.data);
    blocks_.clear();
    Block block;
    block.capacity = total;
    block.data = AlignedNew(block.capacity);
    blocks_.push_back(block);
  }
  for (Block& block : blocks_) block.used = 0;
  active_ = 0;
}

size_t Arena::bytes_reserved() const {
  size_t total = 0;
  for (const Block& block : blocks_) total += block.capacity;
  return total;
}

size_t Arena::bytes_used() const {
  size_t total = 0;
  for (const Block& block : blocks_) total += block.used;
  return total;
}

Arena& ThreadLocalArena() {
  static thread_local Arena arena;
  return arena;
}

// ---------------------------------------------------------------------------
// Elementwise kernels
// ---------------------------------------------------------------------------

namespace {

double MaxValueScalar(const double* x, size_t n) {
  double top = x[0];
  for (size_t i = 1; i < n; ++i) {
    if (x[i] > top) top = x[i];
  }
  return top;
}

void SubtractFromScalar(double minuend, const double* x, double* out,
                        size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = minuend - x[i];
}

void LinearStarGainsScalar(double r, double teacher, const double* s,
                           double* g, size_t n) {
  for (size_t i = 0; i < n; ++i) g[i] = r * (teacher - s[i]);
}

#if defined(TDG_SOA_ISA_AVX2)

double MaxValueSimd(const double* x, size_t n) {
  if (n < 8) return MaxValueScalar(x, n);
  __m256d acc = _mm256_loadu_pd(x);
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_max_pd(acc, _mm256_loadu_pd(x + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double top = MaxValueScalar(lanes, 4);
  for (; i < n; ++i) {
    if (x[i] > top) top = x[i];
  }
  return top;
}

void SubtractFromSimd(double minuend, const double* x, double* out,
                      size_t n) {
  const __m256d m = _mm256_set1_pd(minuend);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sub_pd(m, _mm256_loadu_pd(x + i)));
  }
  SubtractFromScalar(minuend, x + i, out + i, n - i);
}

void LinearStarGainsSimd(double r, double teacher, const double* s, double* g,
                         size_t n) {
  const __m256d vr = _mm256_set1_pd(r);
  const __m256d vt = _mm256_set1_pd(teacher);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        g + i, _mm256_mul_pd(vr, _mm256_sub_pd(vt, _mm256_loadu_pd(s + i))));
  }
  LinearStarGainsScalar(r, teacher, s + i, g + i, n - i);
}

#elif defined(TDG_SOA_ISA_SSE2)

double MaxValueSimd(const double* x, size_t n) {
  if (n < 4) return MaxValueScalar(x, n);
  __m128d acc = _mm_loadu_pd(x);
  size_t i = 2;
  for (; i + 2 <= n; i += 2) {
    acc = _mm_max_pd(acc, _mm_loadu_pd(x + i));
  }
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, acc);
  double top = lanes[1] > lanes[0] ? lanes[1] : lanes[0];
  for (; i < n; ++i) {
    if (x[i] > top) top = x[i];
  }
  return top;
}

void SubtractFromSimd(double minuend, const double* x, double* out,
                      size_t n) {
  const __m128d m = _mm_set1_pd(minuend);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, _mm_sub_pd(m, _mm_loadu_pd(x + i)));
  }
  SubtractFromScalar(minuend, x + i, out + i, n - i);
}

void LinearStarGainsSimd(double r, double teacher, const double* s, double* g,
                         size_t n) {
  const __m128d vr = _mm_set1_pd(r);
  const __m128d vt = _mm_set1_pd(teacher);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(g + i,
                  _mm_mul_pd(vr, _mm_sub_pd(vt, _mm_loadu_pd(s + i))));
  }
  LinearStarGainsScalar(r, teacher, s + i, g + i, n - i);
}

#endif

}  // namespace

double MaxValue(std::span<const double> x) {
  TDG_CHECK(!x.empty());
#if defined(TDG_SOA_ISA_AVX2) || defined(TDG_SOA_ISA_SSE2)
  if (SimdEnabled()) return MaxValueSimd(x.data(), x.size());
#endif
  return MaxValueScalar(x.data(), x.size());
}

void SubtractFrom(double minuend, std::span<const double> x,
                  std::span<double> out) {
  TDG_CHECK_EQ(x.size(), out.size());
  if (x.empty()) return;
#if defined(TDG_SOA_ISA_AVX2) || defined(TDG_SOA_ISA_SSE2)
  if (SimdEnabled()) {
    SubtractFromSimd(minuend, x.data(), out.data(), x.size());
    return;
  }
#endif
  SubtractFromScalar(minuend, x.data(), out.data(), x.size());
}

void LinearStarGains(double r, double teacher, std::span<const double> s,
                     std::span<double> gains) {
  TDG_CHECK_EQ(s.size(), gains.size());
  if (s.empty()) return;
#if defined(TDG_SOA_ISA_AVX2) || defined(TDG_SOA_ISA_SSE2)
  if (SimdEnabled()) {
    LinearStarGainsSimd(r, teacher, s.data(), gains.data(), s.size());
    return;
  }
#endif
  LinearStarGainsScalar(r, teacher, s.data(), gains.data(), s.size());
}

double OrderedSum(std::span<const double> x) {
  // Deliberately sequential (see soa.h): this fold defines the reported
  // accumulation order and must stay identical across scalar/SIMD builds.
  double sum = 0.0;
  for (double v : x) sum += v;
  return sum;
}

void Gather(std::span<const double> values, std::span<const int> idx,
            std::span<double> out) {
  TDG_CHECK_EQ(idx.size(), out.size());
  for (size_t i = 0; i < idx.size(); ++i) out[i] = values[idx[i]];
}

void ScatterAdd(std::span<double> values, std::span<const int> idx,
                std::span<const double> add) {
  TDG_CHECK_EQ(idx.size(), add.size());
  for (size_t i = 0; i < idx.size(); ++i) values[idx[i]] += add[i];
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

namespace {

// Monotonic descending key: ascending uint64 order of the key is exactly
// descending double order. -0.0 collapses onto +0.0 so the pair compares
// equal (as under operator>) and the stable tie-break keeps id order.
inline uint64_t DescendingKey(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits = std::bit_cast<uint64_t>(d);
  uint64_t ascending = (bits & 0x8000000000000000ULL)
                           ? ~bits
                           : (bits | 0x8000000000000000ULL);
  return ~ascending;
}

// Inverse of DescendingKey, up to the -0.0 canonicalization: a -0.0 skill
// comes back as +0.0. That substitution is bitwise-invisible to the round
// kernels: skills are validated non-negative, so the only affected values
// are zeros, every difference / gain they produce collapses to the same
// +0.0 in both variants (IEEE-754 round-to-nearest never yields -0.0 from
// x + y with x = +0.0, y = ±0.0), and member updates add those gains onto
// the untouched original skill bits.
inline double SkillFromKey(uint64_t key) {
  uint64_t ascending = ~key;
  uint64_t bits = (ascending & 0x8000000000000000ULL)
                      ? (ascending ^ 0x8000000000000000ULL)
                      : ~ascending;
  return std::bit_cast<double>(bits);
}

struct KeyId {
  uint64_t key;
  uint32_t id;
};

// (key asc, id asc) is the same strict total order as the reference
// comparator (skill desc, stable ties), so any correct sort of it yields
// the identical permutation.
struct KeyIdLess {
  bool operator()(const KeyId& x, const KeyId& y) const {
    if (x.key != y.key) return x.key < y.key;
    return x.id < y.id;
  }
};

// Below this, one comparison sort of (key, id) pairs beats the fixed radix
// overhead (8KB of histograms).
constexpr size_t kRadixMinN = 2048;

// From here up, a single MSD bucket pass (256KB table from the arena) beats
// LSD: one scatter over a few hundred active streams replaces six-plus
// 256-stream passes, and the buckets it leaves are cache-resident.
constexpr size_t kRadixWideMinN = 48 * 1024;

// Stable LSD radix sort with `Bits`-bit digits. Constant-digit passes are
// skipped; for typical skill data the high exponent digits collapse.
// `counts` must hold kPasses * kBuckets entries (caller-provided so the wide
// variant's tables come from the arena, not the stack); it is clobbered.
// Returns the buffer holding the sorted sequence (a or b).
template <int Bits>
KeyId* RadixSortKeyIds(std::span<KeyId> a, std::span<KeyId> b,
                       std::span<uint32_t> counts) {
  constexpr int kPasses = (64 + Bits - 1) / Bits;
  constexpr size_t kBuckets = size_t{1} << Bits;
  constexpr uint64_t kMask = kBuckets - 1;
  const size_t n = a.size();
  TDG_CHECK_EQ(counts.size(), kPasses * kBuckets);
  std::memset(counts.data(), 0, counts.size() * sizeof(uint32_t));
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = a[i].key;
    for (int pass = 0; pass < kPasses; ++pass) {
      ++counts[pass * kBuckets + ((key >> (Bits * pass)) & kMask)];
    }
  }
  KeyId* src = a.data();
  KeyId* dst = b.data();
  for (int pass = 0; pass < kPasses; ++pass) {
    uint32_t* offsets = &counts[pass * kBuckets];  // prefix-summed in place
    const int shift = Bits * pass;
    if (offsets[(src[0].key >> shift) & kMask] == n) continue;  // constant
    uint32_t running = 0;
    for (size_t bucket = 0; bucket < kBuckets; ++bucket) {
      uint32_t count = offsets[bucket];
      offsets[bucket] = running;
      running += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].key >> shift) & kMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

// Large-n sort: two stable 16-bit LSD passes order the pairs by the top 32
// key bits (sign, exponent, and the 20 leading mantissa bits — enough that
// collisions are birthday-rare for continuous skill data), then a linear
// repair scan finishes each run of equal top-32 prefixes with a comparison
// sort of the full (key, id) order. Exact for any input — heavy ties only
// degrade the repair toward one comparison sort of already-id-ordered runs
// — at half the scatter traffic of a full-key radix. `counts` must hold
// 2 * 2^16 entries from the arena; it is clobbered. Returns the buffer
// holding the sorted sequence (a or b).
KeyId* WideSortKeyIds(std::span<KeyId> a, std::span<KeyId> b,
                      std::span<uint32_t> counts) {
  const size_t n = a.size();
  TDG_CHECK_EQ(counts.size(), size_t{2} << 16);
  std::memset(counts.data(), 0, counts.size() * sizeof(uint32_t));
  for (size_t i = 0; i < n; ++i) {
    const uint64_t hi = a[i].key >> 32;
    ++counts[hi & 0xFFFF];
    ++counts[65536 + (hi >> 16)];
  }
  KeyId* src = a.data();
  KeyId* dst = b.data();
  for (int pass = 0; pass < 2; ++pass) {
    uint32_t* offsets = &counts[pass * 65536];  // prefix-summed in place
    const int shift = 32 + 16 * pass;
    if (offsets[(src[0].key >> shift) & 0xFFFF] == n) continue;  // constant
    uint32_t running = 0;
    for (size_t bucket = 0; bucket < 65536; ++bucket) {
      uint32_t count = offsets[bucket];
      offsets[bucket] = running;
      running += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].key >> shift) & 0xFFFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  // The passes were stable, so inside a run of equal top-32 prefixes the
  // pairs still sit in ascending-id input order; sorting the run by the
  // full (key, id) order makes the whole sequence exact.
  size_t run_start = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || (src[i].key >> 32) != (src[run_start].key >> 32)) {
      if (i - run_start > 1) {
        std::sort(src + run_start, src + i, KeyIdLess{});
      }
      run_start = i;
    }
  }
  return src;
}

// Shared engine: sorts (DescendingKey(skill), id) pairs into ascending
// (key, id) order — exactly the reference stable_sort permutation, with the
// skill value recoverable from the key (see SkillFromKey). Allocates from
// `arena`; the caller owns the enclosing ArenaScope.
std::span<KeyId> SortKeyIds(std::span<const double> skills, Arena& arena) {
  TDG_ZONE(obs::Zone::kSkillsSort);
  const size_t n = skills.size();
  std::span<KeyId> a = arena.Alloc<KeyId>(n);
  if (n < kRadixMinN) {
    // The reference algorithm verbatim — a stable sort of bare ids moves
    // 4-byte elements instead of 16-byte pairs, which wins at sizes where
    // the skill reads stay in L1. Keys are materialized afterwards for
    // callers that reconstruct skill values from them.
    std::span<uint32_t> ids = arena.Alloc<uint32_t>(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<uint32_t>(i);
    std::stable_sort(ids.begin(), ids.end(), [&skills](uint32_t x, uint32_t y) {
      return skills[x] > skills[y];
    });
    for (size_t i = 0; i < n; ++i) {
      a[i].key = DescendingKey(skills[ids[i]]);
      a[i].id = ids[i];
    }
    return a;
  }
  for (size_t i = 0; i < n; ++i) {
    a[i].key = DescendingKey(skills[i]);
    a[i].id = static_cast<uint32_t>(i);
  }
  std::span<KeyId> b = arena.Alloc<KeyId>(n);
  KeyId* sorted;
  if (n >= kRadixWideMinN) {
    std::span<uint32_t> counts = arena.Alloc<uint32_t>(size_t{2} << 16);
    sorted = WideSortKeyIds(a, b, counts);
  } else {
    uint32_t counts[8 * 256];
    sorted = RadixSortKeyIds<8>(a, b, counts);
  }
  return sorted == a.data() ? a : b;
}

}  // namespace

void SortIdsByskillDescending(std::span<const double> skills,
                              std::span<int> ids_out, Arena& arena) {
  const size_t n = skills.size();
  TDG_CHECK_EQ(ids_out.size(), n);
  if (n == 0) return;
  if (n < kRadixMinN) {
    // No caller needs sort keys here, so skip materializing them and run
    // the reference kernel verbatim.
    TDG_ZONE(obs::Zone::kSkillsSort);
    for (size_t i = 0; i < n; ++i) ids_out[i] = static_cast<int>(i);
    std::stable_sort(ids_out.begin(), ids_out.end(), [&skills](int x, int y) {
      return skills[x] > skills[y];
    });
    return;
  }
  ArenaScope scope(arena);
  std::span<KeyId> sorted = SortKeyIds(skills, arena);
  for (size_t i = 0; i < n; ++i) ids_out[i] = static_cast<int>(sorted[i].id);
}

// ---------------------------------------------------------------------------
// Group kernels
// ---------------------------------------------------------------------------

double GroupGainSorted(InteractionMode mode, const LearningGainFunction& gain,
                       std::span<const double> sorted,
                       std::span<double> gains) {
  const size_t t = sorted.size();
  TDG_CHECK_EQ(gains.size(), t);
  TDG_CHECK_GE(t, 2u);
  gains[0] = 0.0;  // the teacher / top rank never learns
  switch (mode) {
    case InteractionMode::kStar: {
      const double teacher = sorted[0];
      if (gain.is_linear()) {
        LinearStarGains(gain.rate(), teacher, sorted.subspan(1),
                        gains.subspan(1));
      } else {
        for (size_t i = 1; i < t; ++i) {
          gains[i] = gain.Gain(teacher - sorted[i]);
        }
      }
      return OrderedSum(gains.subspan(1));
    }
    case InteractionMode::kClique: {
      if (gain.is_linear()) {
        // Theorem-3 prefix path — inherently sequential (each step extends
        // the prefix sum), kept scalar with the reference's exact
        // expression so the result is bitwise-stable.
        const double r = gain.rate();
        double group_gain = 0.0;
        double prefix = sorted[0];
        for (size_t i = 1; i < t; ++i) {
          double count = static_cast<double>(i);
          double g = r * (prefix - count * sorted[i]) / count;
          gains[i] = g;
          group_gain += g;
          prefix += sorted[i];
        }
        return group_gain;
      }
      double group_gain = 0.0;
      for (size_t i = 1; i < t; ++i) {
        double total = 0.0;
        for (size_t j = 0; j < i; ++j) {
          total += gain.Gain(sorted[j] - sorted[i]);
        }
        double g = total / static_cast<double>(i);
        gains[i] = g;
        group_gain += g;
      }
      return group_gain;
    }
  }
  return 0.0;
}

namespace {

struct SkillId {
  double skill;
  int32_t id;
};

// True when `members` is already in (skill desc, id asc) order — the order
// every DyGroups layout and most baselines produce — letting the per-group
// sort be skipped. The check is exact: it never changes results, only work.
bool MembersAlreadySorted(std::span<const int> members,
                          std::span<const double> skills) {
  for (size_t i = 1; i < members.size(); ++i) {
    const double prev = skills[members[i - 1]];
    const double cur = skills[members[i]];
    if (!(prev > cur || (prev == cur && members[i - 1] < members[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

double GroupRoundMembers(InteractionMode mode,
                         const LearningGainFunction& gain,
                         std::span<const int> members,
                         std::span<const double> skills, double* update_skills,
                         Arena& arena) {
  const size_t t = members.size();
  if (t <= 1) return 0.0;
  ArenaScope scope(arena);
  std::span<double> sorted = arena.Alloc<double>(t);
  std::span<double> gains = arena.Alloc<double>(t);
  std::span<const int> ids = members;
  if (MembersAlreadySorted(members, skills)) {
    Gather(skills, members, sorted);
  } else {
    std::span<SkillId> pairs = arena.Alloc<SkillId>(t);
    for (size_t i = 0; i < t; ++i) {
      pairs[i].skill = skills[members[i]];
      pairs[i].id = members[i];
    }
    // Same strict total order as the reference SortedGroup comparator.
    std::sort(pairs.begin(), pairs.end(),
              [](const SkillId& a, const SkillId& b) {
                if (a.skill != b.skill) return a.skill > b.skill;
                return a.id < b.id;
              });
    std::span<int> sorted_ids = arena.Alloc<int>(t);
    for (size_t i = 0; i < t; ++i) {
      sorted[i] = pairs[i].skill;
      sorted_ids[i] = pairs[i].id;
    }
    ids = sorted_ids;
  }
  double group_gain = GroupGainSorted(mode, gain, sorted, gains);
  if (update_skills != nullptr) {
    for (size_t i = 1; i < t; ++i) update_skills[ids[i]] += gains[i];
  }
  return group_gain;
}

// ---------------------------------------------------------------------------
// Fused DyGroups round
// ---------------------------------------------------------------------------

util::StatusOr<double> DyGroupsRound(DyGroupsLayout layout,
                                     InteractionMode mode,
                                     const LearningGainFunction& gain,
                                     std::span<double> skills, int num_groups,
                                     Arena& arena,
                                     RoundIntrospection* introspect) {
  TDG_RETURN_IF_ERROR(ValidateSkills(skills));
  const int n = static_cast<int>(skills.size());
  if (num_groups < 1) {
    return util::Status::InvalidArgument(
        util::StrFormat("num_groups must be >= 1, got %d", num_groups));
  }
  if (num_groups > n) {
    return util::Status::InvalidArgument(util::StrFormat(
        "num_groups (%d) exceeds population size (%d)", num_groups, n));
  }
  // The balanced profile (soa.h): the first `extra` groups hold base + 1
  // members, the rest `base`.
  const size_t k = static_cast<size_t>(num_groups);
  const size_t base = static_cast<size_t>(n) / k;
  const size_t extra = static_cast<size_t>(n) % k;
  auto size_of = [&](size_t g) { return base + (g < extra ? 1 : 0); };
  // Group g is rank g followed by size_g - 1 ranks starting at first(g),
  // `stride` apart: contiguous learner blocks under kStarBlocks, and under
  // kRoundRobin the ranks g + j*k (the last lap, j = base, reaches only
  // the first `extra` groups).
  const size_t stride = layout == DyGroupsLayout::kStarBlocks ? 1 : k;
  auto first = [&](size_t g) {
    return layout == DyGroupsLayout::kStarBlocks
               ? k + g * (base - 1) + std::min(g, extra)
               : g + k;
  };

  // The sort zone nested below charges itself; this round zone charges the
  // rest (key inversion, introspection, the group updates).
  TDG_ZONE(RoundZone(mode, gain.is_linear()));
  ArenaScope scope(arena);
  std::span<KeyId> pairs = SortKeyIds(skills, arena);
  // Rank-order skill values come from inverting the sort keys — a
  // sequential sweep instead of an n-wide random gather through `skills`.
  std::span<double> sorted = arena.Alloc<double>(n);
  for (int i = 0; i < n; ++i) sorted[i] = SkillFromKey(pairs[i].key);

  if (introspect != nullptr) {
    // Membership in rank order; pairs[p].id names the participant at rank
    // p. Pure output: the round below never reads these.
    introspect->group_of.assign(static_cast<size_t>(n), 0);
    introspect->group_gains.assign(k, 0.0);
    Grouping* grouping = introspect->grouping;
    if (grouping != nullptr) grouping->groups.assign(k, {});
    for (size_t g = 0; g < k; ++g) {
      const size_t t = size_of(g);
      if (grouping != nullptr) grouping->groups[g].reserve(t);
      for (size_t j = 0; j < t; ++j) {
        const size_t rank = j == 0 ? g : first(g) + (j - 1) * stride;
        const int id = static_cast<int>(pairs[rank].id);
        introspect->group_of[static_cast<size_t>(id)] = static_cast<int>(g);
        if (grouping != nullptr) grouping->groups[g].push_back(id);
      }
    }
  }

  double round_gain = 0.0;
  int64_t updated_groups = 0;
  if (size_of(0) > 1) {
    std::span<double> group = arena.Alloc<double>(size_of(0));
    std::span<double> gains = arena.Alloc<double>(size_of(0));
    for (size_t g = 0; g < k; ++g) {
      const size_t t = size_of(g);
      if (t == 1) continue;  // nothing to learn from, as in ApplyRound
      ++updated_groups;
      // Materialize the group's pre-round skills contiguously in rank
      // order; both layouts list members in descending-skill order, so the
      // per-group sort of the AoS path is a no-op here by construction.
      const size_t learners = first(g);
      group[0] = sorted[g];
      for (size_t j = 1; j < t; ++j) {
        group[j] = sorted[learners + (j - 1) * stride];
      }
      const double group_gain =
          GroupGainSorted(mode, gain, group.first(t), gains.first(t));
      round_gain += group_gain;
      if (introspect != nullptr) introspect->group_gains[g] = group_gain;
      for (size_t j = 1; j < t; ++j) {
        skills[pairs[learners + (j - 1) * stride].id] += gains[j];
      }
    }
  }
  if (mode == InteractionMode::kStar) {
    TDG_OBS_COUNTER_ADD("interaction/star_group_updates", updated_groups);
  } else {
    TDG_OBS_COUNTER_ADD("interaction/clique_group_updates", updated_groups);
  }
  TDG_BLACKBOX(obs::BlackboxEventType::kRoundObjective,
               static_cast<double>(n), static_cast<double>(num_groups),
               layout == DyGroupsLayout::kStarBlocks ? 0.0 : 1.0,
               round_gain);
  return round_gain;
}

}  // namespace tdg::soa
