#ifndef TDG_CORE_SOA_H_
#define TDG_CORE_SOA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/interaction.h"
#include "util/statusor.h"

/// The structure-of-arrays data plane (DESIGN.md §11).
///
/// Every hot kernel of the reproduction — skill-deficit computation, the
/// descending-skill sort, Star and Clique learning-gain evaluation (including
/// the Theorem-3 prefix-sum path), and the O(n/k) swap-delta objective —
/// runs here over contiguous buffers with per-round scratch coming from a
/// bump-allocated Arena, instead of per-participant objects and per-group
/// heap allocations.
///
/// Contract with the AoS reference (core/reference/reference_kernels.h):
/// every kernel is **bitwise-identical** to the reference implementation.
/// Two rules make that possible and must be preserved by future changes:
///
///   1. Elementwise arithmetic is IEEE-identical: SIMD lanes execute the
///      same mul/sub/div sequence as the scalar code (no FMA contraction —
///      the build sets -ffp-contract=off), so per-member gains match the
///      reference to the last bit.
///   2. Reductions are fixed-order: every sum that feeds a reported gain
///      (group gain, round gain, deficit totals) is a sequential
///      left-to-right fold (OrderedSum) and is NEVER vectorized. A
///      tree/lane reduction would change rounding and silently perturb
///      sweep outputs (see soa_differential_test.cc's summation-order
///      regression tests).
///
/// The documented ULP tolerance of the differential oracle is therefore
/// **0 ULP** for all five kernels. Any future kernel that genuinely needs a
/// reordered reduction must widen the tolerance here, in DESIGN.md §11, and
/// in soa_differential_test.cc — in the same change.
namespace tdg::soa {

// ---------------------------------------------------------------------------
// SIMD dispatch
// ---------------------------------------------------------------------------

/// Instruction set the vector paths were compiled for. Dispatch is
/// compile-time: AVX2 when the TU is built with -mavx2/-march=native, else
/// SSE2 (baseline on x86-64), else scalar (other architectures, or a
/// -DTDG_SIMD=OFF forced-scalar build).
enum class SimdIsa { kScalar, kSse2, kAvx2 };

/// The ISA compiled into this binary.
SimdIsa CompiledSimdIsa();

/// Doubles per vector lane of the compiled ISA (1 for scalar).
int SimdLanes();

/// "scalar", "sse2" or "avx2".
const char* SimdIsaName(SimdIsa isa);

/// True when vector paths are compiled in AND enabled at runtime. Runtime
/// control: the TDG_SIMD environment variable ("off", "0" or "scalar"
/// disables; read once at first use) or SetSimdEnabledForTest. Because every
/// kernel is bitwise-identical in both modes, flipping this never changes
/// any result — only throughput.
bool SimdEnabled();

/// Test/CLI override of the runtime switch. Forcing `true` on a scalar-only
/// build is a no-op (kernels stay scalar).
void SetSimdEnabledForTest(bool enabled);

// ---------------------------------------------------------------------------
// Arena: per-round scratch
// ---------------------------------------------------------------------------

/// Bump allocator for kernel scratch. All allocations are 64-byte aligned
/// (cache line / widest vector), uninitialized, and trivially destroyed.
/// Lifetime is stack-like: an ArenaScope marks the current top on entry and
/// releases back to it on exit, so nested kernels (e.g. the swap-delta
/// objective calling the group-gain kernel) can share one arena without
/// clobbering each other. Memory is retained across scopes — the steady
/// state of an α-round process is zero allocations per round.
class Arena {
 public:
  static constexpr size_t kAlignment = 64;

  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized span of `count` Ts, 64-byte aligned. T must be trivially
  /// copyable + destructible (the arena never runs constructors or
  /// destructors).
  template <typename T>
  std::span<T> Alloc(size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    return {static_cast<T*>(AllocBytes(count * sizeof(T))),
            count};
  }

  /// Position marker for stack-like release (use ArenaScope).
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };
  Mark Top() const;
  /// Releases every allocation made after `mark` (memory is retained for
  /// reuse). Spans handed out after the mark are invalidated.
  void Release(const Mark& mark);

  /// Releases everything and coalesces multiple growth blocks into one
  /// contiguous block so the steady state is a single allocation.
  void Reset();

  size_t bytes_reserved() const;
  size_t bytes_used() const;

 private:
  struct Block {
    std::byte* data = nullptr;
    size_t capacity = 0;
    size_t used = 0;
  };

  void* AllocBytes(size_t bytes);

  std::vector<Block> blocks_;
  size_t active_ = 0;  // index of the block currently bump-allocating
};

/// RAII stack frame over an Arena.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.Top()) {}
  ~ArenaScope() { arena_.Release(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// The calling thread's kernel scratch arena. Core entry points
/// (ApplyRound, EvaluateGroupGain, swap-delta, the sorts) frame their usage
/// with ArenaScope, so nesting them is safe.
Arena& ThreadLocalArena();

// ---------------------------------------------------------------------------
// Elementwise kernels (SIMD with scalar fallback; bitwise == scalar)
// ---------------------------------------------------------------------------

/// Maximum of a non-empty span. Bitwise equal to *std::max_element for
/// NaN-free input (max is exact, so lane order cannot change the result).
double MaxValue(std::span<const double> x);

/// out[i] = minuend - x[i]. `out` must not overlap `x` partially (equal or
/// disjoint spans are both fine).
void SubtractFrom(double minuend, std::span<const double> x,
                  std::span<double> out);

/// gains[i] = r * (teacher - s[i]) — the linear star-mode learning gain of
/// every member against a broadcast teacher skill.
void LinearStarGains(double r, double teacher, std::span<const double> s,
                     std::span<double> gains);

/// Sequential left-to-right sum starting from 0.0. This is the ONLY
/// reduction used for reported gains and is deliberately never vectorized
/// (see the file comment); both SIMD and scalar builds run this exact loop.
double OrderedSum(std::span<const double> x);

/// out[i] = values[idx[i]].
void Gather(std::span<const double> values, std::span<const int> idx,
            std::span<double> out);

/// values[idx[i]] += add[i]. Indices must be distinct.
void ScatterAdd(std::span<double> values, std::span<const int> idx,
                std::span<const double> add);

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// Fills ids_out (size n) with participant ids ordered by descending skill,
/// ties by ascending id — the exact permutation of the reference
/// std::stable_sort. Large inputs take an 8-pass LSD radix sort over
/// order-preserving key encodings of the doubles (skipping constant-byte
/// passes); small inputs sort (key, id) pairs directly. Precondition:
/// NaN-free input (the reference comparator is undefined on NaN too).
void SortIdsByskillDescending(std::span<const double> skills,
                              std::span<int> ids_out, Arena& arena);

// ---------------------------------------------------------------------------
// Group kernels
// ---------------------------------------------------------------------------

/// Learning-gain round of one group given its pre-round skills in
/// descending-rank order (`sorted`, size t >= 2). Writes the per-member
/// gain into `gains` (gains[0] = 0: the teacher / top rank never learns)
/// and returns the ordered group gain Σ gains[i]. Linear clique gains take
/// the Theorem-3 prefix path, exactly like the reference.
double GroupGainSorted(InteractionMode mode, const LearningGainFunction& gain,
                       std::span<const double> sorted,
                       std::span<double> gains);

/// Full per-group kernel over an unordered member list: gathers the
/// members' skills, sorts them (descending skill, ties by ascending id —
/// skipped when the members already arrive in that order), evaluates
/// GroupGainSorted, and — when `update_skills` is non-null — scatter-adds
/// each member's gain into update_skills[id]. Returns the group gain.
/// `members` must index into `skills`; groups of size <= 1 return 0.0.
double GroupRoundMembers(InteractionMode mode,
                         const LearningGainFunction& gain,
                         std::span<const int> members,
                         std::span<const double> skills, double* update_skills,
                         Arena& arena);

// ---------------------------------------------------------------------------
// Fused DyGroups round
// ---------------------------------------------------------------------------

/// The two closed-form DyGroups layouts over the descending-skill order:
/// kStarBlocks is Algorithm 2 (teachers = top k ranks, contiguous learner
/// blocks), kRoundRobin is Algorithm 3 (rank j*k + i joins group i).
enum class DyGroupsLayout { kStarBlocks, kRoundRobin };

/// Pure-output side channel of a fused round, filled only when requested:
/// never touches the round's arithmetic or accumulation order, so the
/// 0-ULP differential contract (DESIGN.md §11) is untouched. Feeds the
/// flight recorder's semantic events (group churn, per-group gain
/// summaries), the served cohort's assignment, and RunProcess's history.
struct RoundIntrospection {
  /// group_of[id] = index of the group participant `id` joined this round.
  std::vector<int> group_of;
  /// Ordered gain of each group (0.0 for size-1 groups, which never
  /// update).
  std::vector<double> group_gains;
  /// When non-null, receives the round's groups with members in rank order
  /// — the member order of the DyGroups*Local(Sized) builders.
  Grouping* grouping = nullptr;
};

/// One fused DyGroups round: sorts `skills`, forms the layout implicitly
/// (no Grouping materialization), applies the `mode` interaction update in
/// place and returns the round gain LG(G_t).
///
/// The layout runs on the balanced size profile: k = `num_groups` <= n
/// groups, the first e = n mod k of size ceil(n/k) and the rest of size
/// b = floor(n/k) — Cohort::SizeProfileFor's profile, and the equi-sized
/// layout when k divides n. Over ranks p of the descending-skill order:
///   - kStarBlocks: rank g leads group g; its size_g - 1 learners are the
///     contiguous ranks from k + g*(b-1) + min(g, e).
///   - kRoundRobin: rank p < b*k joins group p mod k, rank p >= b*k joins
///     group p - b*k.
/// Bitwise-identical to reference::DyGroups*Local (equal sizes) or
/// DyGroups*LocalSized (balanced sizes) followed by reference::ApplyRound,
/// including the group order in which gains accumulate into the round gain
/// and the skipping of size-1 groups.
///
/// The one DyGroups round of the tree: RunProcess runs it for every policy
/// that declares a DyGroups kernel kind (with or without history), served
/// cohorts (serve::Cohort::Advance) run it for the star and clique
/// policies, and bench_soa_kernels measures it. `introspect`, when
/// non-null, receives the implicit membership and per-group gains as pure
/// extra outputs.
util::StatusOr<double> DyGroupsRound(DyGroupsLayout layout,
                                     InteractionMode mode,
                                     const LearningGainFunction& gain,
                                     std::span<double> skills, int num_groups,
                                     Arena& arena,
                                     RoundIntrospection* introspect = nullptr);

}  // namespace tdg::soa

#endif  // TDG_CORE_SOA_H_
