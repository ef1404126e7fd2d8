#include "obs/build_info.hpp"

#include <sstream>

#include "common/json.hpp"

// Compile definitions supplied by src/obs/CMakeLists.txt.  Fallbacks keep
// the file compilable outside CMake (e.g. IDE syntax-only builds).
#ifndef FMM_BUILD_GIT
#define FMM_BUILD_GIT "unknown"
#endif
#ifndef FMM_BUILD_TYPE
#define FMM_BUILD_TYPE "unknown"
#endif
#ifndef FMM_BUILD_PRESET
#define FMM_BUILD_PRESET "none"
#endif
#ifndef FMM_BUILD_VERSION
#define FMM_BUILD_VERSION "0.0.0"
#endif
#ifndef FMM_TRACING_ENABLED
#define FMM_TRACING_ENABLED 0
#endif

namespace fmm::obs {

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.version = FMM_BUILD_VERSION;
    b.git = FMM_BUILD_GIT;
    b.build_type = FMM_BUILD_TYPE;
    b.preset = FMM_BUILD_PRESET;
    b.compiler = __VERSION__;
    b.tracing = FMM_TRACING_ENABLED != 0;
    return b;
  }();
  return info;
}

std::string build_info_json() {
  const BuildInfo& b = build_info();
  std::ostringstream os;
  const auto field = [&os](const char* key, const std::string& value) {
    os << "\"" << key << "\": \"";
    json_escape(os, value);
    os << "\", ";
  };
  os << "{";
  field("version", b.version);
  field("git", b.git);
  field("build_type", b.build_type);
  field("preset", b.preset);
  field("compiler", b.compiler);
  os << "\"tracing\": " << (b.tracing ? "true" : "false") << "}";
  return os.str();
}

std::string build_info_line() {
  const BuildInfo& b = build_info();
  std::ostringstream os;
  os << "fmmio " << b.version << " (git " << b.git << ", " << b.build_type
     << ", preset " << b.preset << ", tracing "
     << (b.tracing ? "on" : "off") << ")";
  return os.str();
}

}  // namespace fmm::obs
