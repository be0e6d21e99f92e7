#ifndef TDG_OBS_RUN_MANIFEST_H_
#define TDG_OBS_RUN_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/statusor.h"

namespace tdg::obs {

/// Provenance record attached to every benchmark report / sweep / CLI run:
/// enough to answer "what binary, built how, ran where, with what inputs"
/// when two perf numbers disagree months apart. Serialized with the repo's
/// JSON writer (sorted keys, so manifests diff cleanly).
///
/// Build-time fields (git sha, compiler, flags, build type, sanitizer) are
/// baked in by src/obs/CMakeLists.txt at *configure* time — a stale build
/// tree can carry a stale sha; `ci/check.sh bench-smoke` always configures
/// fresh. Host fields are sampled at Capture() time.
struct RunManifest {
  /// Schema identifier; bump when the field set changes incompatibly.
  static constexpr const char* kSchema = "tdg.run_manifest.v1";

  std::string schema = kSchema;
  // Build provenance.
  std::string git_sha;         // short sha at configure time, or "unknown"
  std::string compiler;        // e.g. "GNU 12.2.0"
  std::string compiler_flags;  // CMAKE_CXX_FLAGS + build-type flags
  std::string build_type;      // e.g. "RelWithDebInfo"
  std::string sanitizer;       // "", "address", "undefined", "thread"
  // Host provenance.
  std::string os;        // "linux" / "darwin" / "unknown"
  std::string hostname;
  std::string cpu_model;       // /proc/cpuinfo model name when available
  int hardware_threads = 0;
  // Run provenance.
  uint64_t seed = 0;
  std::vector<std::string> args;  // argv[1..] of the run
  std::string timestamp_utc;      // ISO 8601, e.g. "2026-08-06T12:00:00Z"

  /// Samples build + host provenance and stamps the current UTC time.
  /// `argc`/`argv` (optional) populate `args` with argv[1..].
  static RunManifest Capture(uint64_t seed = 0, int argc = 0,
                             const char* const* argv = nullptr);

  /// Stable 16-hex-char FNV-1a digest over the *build* provenance fields
  /// (git sha, compiler, flags, build type, sanitizer) plus
  /// `extra` (caller-supplied configuration text). Host and run fields are
  /// deliberately excluded: the same binary resuming the same experiment on
  /// another day — or another machine — must digest identically, while a
  /// rebuilt binary or an edited config must not. The sweep checkpoint
  /// layer (exp::SweepShard) refuses to resume across a digest change.
  std::string BuildDigest(std::string_view extra = "") const;

  /// Copy with every volatile field (timestamp, hostname, cpu, git sha,
  /// compiler, flags, build type, sanitizer, thread count, os)
  /// replaced by a stable placeholder — what golden tests compare against.
  RunManifest Normalized() const;

  util::JsonValue ToJson() const;

  /// Parses a manifest previously produced by ToJson(). Unknown fields are
  /// ignored; a missing or mismatched "schema" is an error.
  static util::StatusOr<RunManifest> FromJson(const util::JsonValue& json);

  bool operator==(const RunManifest& other) const = default;
};

}  // namespace tdg::obs

#endif  // TDG_OBS_RUN_MANIFEST_H_
