#include "obs/run_manifest.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

#include "util/string_util.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace tdg::obs {
namespace {

// Build provenance injected by src/obs/CMakeLists.txt; the fallbacks keep
// out-of-cmake builds (IDE single-file checks) compiling.
#ifndef TDG_BUILD_GIT_SHA
#define TDG_BUILD_GIT_SHA "unknown"
#endif
#ifndef TDG_BUILD_COMPILER
#define TDG_BUILD_COMPILER "unknown"
#endif
#ifndef TDG_BUILD_FLAGS
#define TDG_BUILD_FLAGS ""
#endif
#ifndef TDG_BUILD_TYPE
#define TDG_BUILD_TYPE "unknown"
#endif
#ifndef TDG_BUILD_SANITIZE
#define TDG_BUILD_SANITIZE ""
#endif

std::string HostName() {
#if defined(__unix__) || defined(__APPLE__)
  char buffer[256] = {};
  if (gethostname(buffer, sizeof(buffer) - 1) == 0 && buffer[0] != '\0') {
    return buffer;
  }
#endif
  return "unknown";
}

std::string CpuModel() {
#if defined(__linux__)
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (util::StartsWith(line, "model name")) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(util::Trim(line.substr(colon + 1)));
      }
    }
  }
#endif
  return "unknown";
}

std::string OsName() {
#if defined(__linux__)
  return "linux";
#elif defined(__APPLE__)
  return "darwin";
#else
  return "unknown";
#endif
}

std::string UtcNow() {
  std::time_t now = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm utc = {};
#if defined(_WIN32)
  gmtime_s(&utc, &now);
#else
  gmtime_r(&now, &utc);
#endif
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

// Reads an optional string/number field, leaving `out` untouched when
// the field is absent or of the wrong type (forward compatibility: an old
// reader must not choke on a manifest from a newer writer).
void ReadString(const util::JsonValue& json, std::string_view key,
                std::string& out) {
  auto field = json.GetField(key);
  if (field.ok() && field->is_string()) out = field->AsString();
}

void ReadNumber(const util::JsonValue& json, std::string_view key,
                double& out) {
  auto field = json.GetField(key);
  if (field.ok() && field->is_number()) out = field->AsNumber();
}

}  // namespace

RunManifest RunManifest::Capture(uint64_t seed, int argc,
                                 const char* const* argv) {
  RunManifest manifest;
  manifest.git_sha = TDG_BUILD_GIT_SHA;
  manifest.compiler = TDG_BUILD_COMPILER;
  manifest.compiler_flags = TDG_BUILD_FLAGS;
  manifest.build_type = TDG_BUILD_TYPE;
  manifest.sanitizer = TDG_BUILD_SANITIZE;
  manifest.os = OsName();
  manifest.hostname = HostName();
  manifest.cpu_model = CpuModel();
  manifest.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  manifest.seed = seed;
  for (int i = 1; i < argc; ++i) manifest.args.emplace_back(argv[i]);
  manifest.timestamp_utc = UtcNow();
  return manifest;
}

std::string RunManifest::BuildDigest(std::string_view extra) const {
  // Chain the fields with '\x1f' separators so ("ab","c") and ("a","bc")
  // digest differently.
  uint64_t hash = util::Fnv1a64(git_sha);
  for (std::string_view part :
       {std::string_view(compiler), std::string_view(compiler_flags),
        std::string_view(build_type), std::string_view(sanitizer), extra}) {
    hash = util::Fnv1a64("\x1f", hash);
    hash = util::Fnv1a64(part, hash);
  }
  return util::StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

RunManifest RunManifest::Normalized() const {
  RunManifest normalized = *this;
  normalized.git_sha = "<git-sha>";
  normalized.compiler = "<compiler>";
  normalized.compiler_flags = "<flags>";
  normalized.build_type = "<build-type>";
  normalized.sanitizer = "<sanitizer>";
  normalized.os = "<os>";
  normalized.hostname = "<hostname>";
  normalized.cpu_model = "<cpu>";
  normalized.hardware_threads = 0;
  normalized.timestamp_utc = "<timestamp>";
  return normalized;
}

util::JsonValue RunManifest::ToJson() const {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("schema", schema);
  json.Set("git_sha", git_sha);
  json.Set("compiler", compiler);
  json.Set("compiler_flags", compiler_flags);
  json.Set("build_type", build_type);
  json.Set("sanitizer", sanitizer);
  json.Set("os", os);
  json.Set("hostname", hostname);
  json.Set("cpu_model", cpu_model);
  json.Set("hardware_threads", hardware_threads);
  json.Set("seed", static_cast<double>(seed));
  util::JsonValue args_json = util::JsonValue::MakeArray();
  for (const std::string& arg : args) args_json.Append(arg);
  json.Set("args", std::move(args_json));
  json.Set("timestamp_utc", timestamp_utc);
  return json;
}

util::StatusOr<RunManifest> RunManifest::FromJson(
    const util::JsonValue& json) {
  if (!json.is_object()) {
    return util::Status::InvalidArgument("run manifest must be an object");
  }
  auto schema = json.GetField("schema");
  if (!schema.ok() || !schema->is_string()) {
    return util::Status::InvalidArgument("run manifest missing \"schema\"");
  }
  if (schema->AsString() != kSchema) {
    return util::Status::InvalidArgument("unsupported run manifest schema: " +
                                         schema->AsString());
  }
  RunManifest manifest;
  ReadString(json, "git_sha", manifest.git_sha);
  ReadString(json, "compiler", manifest.compiler);
  ReadString(json, "compiler_flags", manifest.compiler_flags);
  ReadString(json, "build_type", manifest.build_type);
  ReadString(json, "sanitizer", manifest.sanitizer);
  ReadString(json, "os", manifest.os);
  ReadString(json, "hostname", manifest.hostname);
  ReadString(json, "cpu_model", manifest.cpu_model);
  double hardware_threads = 0;
  ReadNumber(json, "hardware_threads", hardware_threads);
  manifest.hardware_threads = static_cast<int>(hardware_threads);
  double seed = 0;
  ReadNumber(json, "seed", seed);
  manifest.seed = static_cast<uint64_t>(seed);
  auto args = json.GetField("args");
  if (args.ok() && args->is_array()) {
    for (const util::JsonValue& arg : args->AsArray()) {
      if (!arg.is_string()) {
        return util::Status::InvalidArgument(
            "run manifest \"args\" must contain strings");
      }
      manifest.args.push_back(arg.AsString());
    }
  }
  ReadString(json, "timestamp_utc", manifest.timestamp_utc);
  return manifest;
}

}  // namespace tdg::obs
