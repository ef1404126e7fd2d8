// Machine-readable run reports — the stable JSON surface benches and
// examples emit so runs can be diffed across PRs.
//
// A report captures one executable invocation: its parameters, the
// per-phase wall-clock (steady-clock) durations, the bound-vs-measured
// comparisons the paper cares about, free-form result values, and a full
// snapshot of the obs metrics registry.  The layout is versioned
// (schema/schema_version fields); tools/check_report_schema.py validates
// emitted files against the current version from ctest.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fmm::obs {

inline constexpr const char* kRunReportSchema = "fmm.run_report";
inline constexpr int kRunReportSchemaVersion = 1;

class RunReport {
 public:
  explicit RunReport(std::string name);

  /// Run parameters (algorithm, n, M, seed, ...).
  void set_param(const std::string& key, const std::string& value);
  void set_param(const std::string& key, const char* value);
  void set_param(const std::string& key, std::int64_t value);
  void set_param(const std::string& key, double value);
  void set_param(const std::string& key, bool value);

  /// Measured outputs of the run.
  void set_result(const std::string& key, const std::string& value);
  void set_result(const std::string& key, std::int64_t value);
  void set_result(const std::string& key, double value);
  void set_result(const std::string& key, bool value);

  /// Wall-clock (steady) seconds spent in a named phase.
  void add_phase_seconds(const std::string& phase, double seconds);

  /// One bound-vs-measured row; ratio is derived (measured / bound).
  void add_bound_check(const std::string& name, double bound,
                       double measured);

  /// Embeds a pre-rendered JSON value under `key` in the "extra"
  /// section (used by bounds::CertificationReport).
  void add_raw_section(const std::string& key, std::string json_value);

  /// Copies the current obs registry snapshot into the report's
  /// "metrics" section (replacing any earlier snapshot).
  void attach_metrics_snapshot();

  std::string to_json() const;
  void write_file(const std::string& path) const;

 private:
  struct Scalar {
    enum class Kind { kString, kInt, kDouble, kBool, kRaw };
    Kind kind = Kind::kInt;
    std::string str;
    std::int64_t i = 0;
    double d = 0.0;
    bool b = false;
  };
  struct BoundCheck {
    std::string name;
    double bound = 0.0;
    double measured = 0.0;
  };
  using Section = std::vector<std::pair<std::string, Scalar>>;

  static void upsert(Section& section, const std::string& key,
                     Scalar value);

  std::string name_;
  Section params_;
  Section results_;
  Section phases_;
  Section extra_;
  std::vector<BoundCheck> bounds_;
  std::vector<std::pair<std::string, std::int64_t>> metrics_;
};

/// Common CLI surface for report-emitting binaries:
///   --out <path>    write the run report there (default: no report)
///   --trace <path>  turn the tracer on and write the Chrome trace
///                   there (default: tracing stays off)
///   --seed <u64>    RNG seed (default 1 — fixed, so trajectories are
///                   reproducible run-to-run)
/// Unrecognized arguments are left alone for the binary's own parser.
struct ReportCli {
  std::string out_path;
  std::string trace_path;
  std::uint64_t seed = 1;

  bool wants_report() const { return !out_path.empty(); }
};

/// Parses the flags above; enables the tracer iff --trace is given.
ReportCli parse_report_cli(int argc, char** argv);

/// End-of-run bookkeeping: snapshots metrics into `report`, writes the
/// report to cli.out_path (if set), and — when tracing is compiled in
/// and runtime-enabled — writes the Chrome trace JSON to cli.trace_path
/// (if set).
void finalize_run(const ReportCli& cli, RunReport& report);

}  // namespace fmm::obs
