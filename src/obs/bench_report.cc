#include "obs/bench_report.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/zone.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace tdg::obs {
namespace {

std::string Basename(std::string_view path) {
  size_t slash = path.find_last_of('/');
  if (slash != std::string_view::npos) path.remove_prefix(slash + 1);
  return std::string(path);
}

}  // namespace

double BenchCase::MeanWallMicros() const {
  if (wall_micros.empty()) return 0;
  double sum = 0;
  for (double v : wall_micros) sum += v;
  return sum / static_cast<double>(wall_micros.size());
}

util::JsonValue BenchReport::ToJson() const {
  util::JsonValue cases_json = util::JsonValue::MakeArray();
  for (const BenchCase& bench_case : cases) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("key", bench_case.key);
    util::JsonValue wall = util::JsonValue::MakeArray();
    for (double v : bench_case.wall_micros) wall.Append(v);
    entry.Set("wall_micros", std::move(wall));
    util::JsonValue objective = util::JsonValue::MakeArray();
    for (double v : bench_case.objective) objective.Append(v);
    entry.Set("objective", std::move(objective));
    util::JsonValue counters = util::JsonValue::MakeObject();
    for (const auto& [name, value] : bench_case.counters) {
      counters.Set(name, value);
    }
    entry.Set("counters", std::move(counters));
    if (!bench_case.counter_series.empty()) {
      util::JsonValue series_json = util::JsonValue::MakeObject();
      for (const auto& [name, samples] : bench_case.counter_series) {
        util::JsonValue values = util::JsonValue::MakeArray();
        for (double v : samples) values.Append(v);
        series_json.Set(name, std::move(values));
      }
      entry.Set("counter_series", std::move(series_json));
    }
    cases_json.Append(std::move(entry));
  }
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("schema", schema);
  json.Set("bench", bench_name);
  json.Set("manifest", manifest.ToJson());
  if (!perf_backend.empty()) json.Set("perf_backend", perf_backend);
  json.Set("cases", std::move(cases_json));
  return json;
}

util::StatusOr<BenchReport> BenchReport::FromJson(
    const util::JsonValue& json) {
  if (!json.is_object()) {
    return util::Status::InvalidArgument("bench report must be an object");
  }
  auto schema = json.GetField("schema");
  if (!schema.ok() || !schema->is_string() ||
      (schema->AsString() != kSchema && schema->AsString() != kSchemaV1)) {
    return util::Status::InvalidArgument(
        "bench report missing or unsupported \"schema\" (want " +
        std::string(kSchema) + " or " + std::string(kSchemaV1) + ")");
  }
  BenchReport report;
  report.schema = schema->AsString();
  auto bench = json.GetField("bench");
  if (bench.ok() && bench->is_string()) report.bench_name = bench->AsString();
  auto backend = json.GetField("perf_backend");
  if (backend.ok() && backend->is_string()) {
    report.perf_backend = backend->AsString();
  }
  auto manifest = json.GetField("manifest");
  if (!manifest.ok()) {
    return util::Status::InvalidArgument("bench report missing \"manifest\"");
  }
  auto parsed_manifest = RunManifest::FromJson(manifest.value());
  if (!parsed_manifest.ok()) return parsed_manifest.status();
  report.manifest = std::move(parsed_manifest).value();
  auto cases = json.GetField("cases");
  if (!cases.ok() || !cases->is_array()) {
    return util::Status::InvalidArgument(
        "bench report missing \"cases\" array");
  }
  for (const util::JsonValue& entry : cases->AsArray()) {
    if (!entry.is_object()) {
      return util::Status::InvalidArgument("bench case must be an object");
    }
    BenchCase bench_case;
    auto key = entry.GetField("key");
    if (!key.ok() || !key->is_string()) {
      return util::Status::InvalidArgument("bench case missing \"key\"");
    }
    bench_case.key = key->AsString();
    auto read_array = [&entry](std::string_view field,
                               std::vector<double>& out) -> util::Status {
      auto array = entry.GetField(field);
      if (!array.ok() || !array->is_array()) {
        return util::Status::InvalidArgument(
            "bench case missing \"" + std::string(field) + "\" array");
      }
      for (const util::JsonValue& v : array->AsArray()) {
        if (!v.is_number()) {
          return util::Status::InvalidArgument(
              "bench case \"" + std::string(field) + "\" must be numeric");
        }
        out.push_back(v.AsNumber());
      }
      return util::Status::OK();
    };
    TDG_RETURN_IF_ERROR(read_array("wall_micros", bench_case.wall_micros));
    TDG_RETURN_IF_ERROR(read_array("objective", bench_case.objective));
    auto counters = entry.GetField("counters");
    if (counters.ok() && counters->is_object()) {
      for (const auto& [name, value] : counters->AsObject()) {
        if (!value.is_number()) {
          return util::Status::InvalidArgument(
              "bench case counter \"" + name + "\" must be numeric");
        }
        bench_case.counters[name] = value.AsNumber();
      }
    }
    auto series = entry.GetField("counter_series");
    if (series.ok() && series->is_object()) {
      for (const auto& [name, values] : series->AsObject()) {
        if (!values.is_array()) {
          return util::Status::InvalidArgument(
              "bench case counter series \"" + name + "\" must be an array");
        }
        std::vector<double>& out = bench_case.counter_series[name];
        for (const util::JsonValue& v : values.AsArray()) {
          if (!v.is_number()) {
            return util::Status::InvalidArgument(
                "bench case counter series \"" + name +
                "\" must be numeric");
          }
          out.push_back(v.AsNumber());
        }
      }
    }
    report.cases.push_back(std::move(bench_case));
  }
  return report;
}

util::Status BenchReport::Validate() const {
  if (schema != kSchema && schema != kSchemaV1) {
    return util::Status::InvalidArgument("unexpected schema: " + schema);
  }
  if (bench_name.empty()) {
    return util::Status::InvalidArgument("empty bench name");
  }
  if (manifest.schema != RunManifest::kSchema) {
    return util::Status::InvalidArgument("unexpected manifest schema: " +
                                         manifest.schema);
  }
  if (cases.empty()) {
    return util::Status::InvalidArgument("report has no cases");
  }
  std::map<std::string, int> seen;
  for (const BenchCase& bench_case : cases) {
    if (bench_case.key.empty()) {
      return util::Status::InvalidArgument("case with empty key");
    }
    if (++seen[bench_case.key] > 1) {
      return util::Status::InvalidArgument("duplicate case key: " +
                                           bench_case.key);
    }
    if (bench_case.wall_micros.empty()) {
      return util::Status::InvalidArgument("case \"" + bench_case.key +
                                           "\" has no repetitions");
    }
    if (bench_case.wall_micros.size() != bench_case.objective.size()) {
      return util::Status::InvalidArgument(
          "case \"" + bench_case.key +
          "\" wall_micros/objective length mismatch");
    }
    for (double v : bench_case.wall_micros) {
      if (!std::isfinite(v) || v < 0) {
        return util::Status::InvalidArgument(
            "case \"" + bench_case.key + "\" has a non-finite or negative "
            "wall time");
      }
    }
    for (double v : bench_case.objective) {
      if (!std::isfinite(v)) {
        return util::Status::InvalidArgument(
            "case \"" + bench_case.key + "\" has a non-finite objective");
      }
    }
    for (const auto& [name, value] : bench_case.counters) {
      if (!std::isfinite(value)) {
        return util::Status::InvalidArgument("case \"" + bench_case.key +
                                             "\" counter \"" + name +
                                             "\" is non-finite");
      }
    }
    for (const auto& [name, samples] : bench_case.counter_series) {
      if (samples.size() != bench_case.wall_micros.size()) {
        return util::Status::InvalidArgument(
            "case \"" + bench_case.key + "\" counter series \"" + name +
            "\" length does not match the repetition count");
      }
      for (double v : samples) {
        if (!std::isfinite(v)) {
          return util::Status::InvalidArgument(
              "case \"" + bench_case.key + "\" counter series \"" + name +
              "\" has a non-finite sample");
        }
      }
    }
  }
  return util::Status::OK();
}

util::Status BenchReport::WriteFile(const std::string& path) const {
  return util::WriteStringToFile(path, ToJson().SerializePretty() + "\n");
}

util::StatusOr<BenchReport> BenchReport::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::IOError("cannot open bench report: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto json = util::JsonValue::Parse(buffer.str());
  if (!json.ok()) {
    return util::Status::InvalidArgument(path + ": " +
                                         json.status().ToString());
  }
  return FromJson(json.value());
}

BenchReporter::BenchReporter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchReporter::set_bench_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  bench_name_ = name;
}

bool BenchReporter::ParseReportFlag(int argc, const char* const* argv) {
  if (bench_name_.empty() && argc > 0) bench_name_ = Basename(argv[0]);
  args_.clear();
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (util::StartsWith(arg, "--report_out=")) {
      output_path_ = std::string(arg.substr(std::string_view(
          "--report_out=").size()));
    } else if (arg == "--report_out" && i + 1 < argc) {
      output_path_ = argv[i + 1];
    } else if (util::StartsWith(arg, "--seed=")) {
      auto seed = util::ParseInt(arg.substr(std::string_view("--seed=")
                                                .size()));
      if (seed.ok()) seed_ = static_cast<uint64_t>(seed.value());
    }
  }
  return enabled();
}

BenchCase& BenchReporter::CaseLocked(const std::string& case_key) {
  auto it = case_index_.find(case_key);
  if (it == case_index_.end()) {
    it = case_index_.emplace(case_key, cases_.size()).first;
    cases_.emplace_back();
    cases_.back().key = case_key;
  }
  return cases_[it->second];
}

void BenchReporter::RecordRep(const std::string& case_key,
                              double wall_micros, double objective) {
  std::lock_guard<std::mutex> lock(mutex_);
  BenchCase& bench_case = CaseLocked(case_key);
  bench_case.wall_micros.push_back(wall_micros);
  bench_case.objective.push_back(objective);
}

void BenchReporter::AddCounter(const std::string& case_key,
                               const std::string& counter, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  CaseLocked(case_key).counters[counter] += delta;
}

void BenchReporter::RecordSeriesValue(const std::string& case_key,
                                      const std::string& series,
                                      double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  CaseLocked(case_key).counter_series[series].push_back(value);
}

void BenchReporter::set_perf_backend(const std::string& backend) {
  std::lock_guard<std::mutex> lock(mutex_);
  perf_backend_ = backend;
}

BenchReport BenchReporter::Build() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BenchReport report;
  report.bench_name = bench_name_.empty() ? "unnamed" : bench_name_;
  report.manifest = RunManifest::Capture(seed_);
  report.manifest.args = args_;
  report.perf_backend = perf_backend_;
  report.cases = cases_;
  return report;
}

util::Status BenchReporter::WriteIfRequested() const {
  if (!enabled()) return util::Status::OK();
  return Build().WriteFile(output_path_);
}

void BenchReporter::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  cases_.clear();
  case_index_.clear();
}

BenchReporter& GlobalBenchReporter() {
  static BenchReporter* const kReporter = new BenchReporter();
  return *kReporter;
}

ScopedBenchRep::ScopedBenchRep(BenchReporter& reporter, std::string case_key)
    : reporter_(reporter), case_key_(std::move(case_key)) {
  // The perf window must enclose the registry-delta window so domain
  // attributions recorded during the scope never exceed the per-rep totals:
  // perf is read first here and last in the destructor.
  if (ProfilingEnabled()) {
    perf_before_ = ThreadPerfCounters::ForCurrentThread().Read();
    perf_active_ = true;
  }
  counters_before_ = MetricsRegistry::Global().SnapshotCounters();
  // Exclude the setup cost above from the recorded wall time.
  watch_.Restart();
}

ScopedBenchRep::~ScopedBenchRep() {
  const double micros = static_cast<double>(watch_.TotalMicros());
  const std::map<std::string, int64_t> counters_after =
      MetricsRegistry::Global().SnapshotCounters();
  PerfSample perf_after;
  if (perf_active_) {
    perf_after = ThreadPerfCounters::ForCurrentThread().Read();
  }
  reporter_.RecordRep(case_key_, micros, objective_);
  for (const auto& [name, after] : counters_after) {
    auto before = counters_before_.find(name);
    // Counters first created during the scope have no before-entry: their
    // whole value accrued inside the scope, so the baseline is 0.
    const int64_t delta =
        after - (before == counters_before_.end() ? 0 : before->second);
    if (delta != 0) {
      reporter_.AddCounter(case_key_, name, static_cast<double>(delta));
    }
  }
  if (perf_active_) {
    const PerfSample delta = perf_after.DeltaSince(perf_before_);
    for (int i = 0; i < kNumPerfEvents; ++i) {
      const PerfEvent event = static_cast<PerfEvent>(i);
      if (!delta.available(event)) continue;
      reporter_.RecordSeriesValue(
          case_key_, "perf/total/" + std::string(PerfEventName(event)),
          static_cast<double>(delta[event]));
    }
    reporter_.set_perf_backend(std::string(
        PerfBackendName(ThreadPerfCounters::ForCurrentThread().backend())));
  }
}

}  // namespace tdg::obs
