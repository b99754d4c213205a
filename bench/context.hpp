// The machine and build a bench's JSON was measured on, recorded beside its
// numbers as a "context" object (the fields of perfbench's `context`
// line), so a reader and tools/check_bench.py can tell whether two files
// are comparable. CMake defines RITM_BUILD_TYPE for every bench.
#pragma once

#include <unistd.h>

#include <fstream>
#include <string>

#include "crypto/sha256_engine.hpp"

namespace ritm::bench {

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The `"context": {...}` JSON member, without a trailing comma.
inline std::string context_json() {
  return "\"context\": {\"nproc\": " +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ", \"cpu\": \"" +
         json_escape(cpu_model()) + "\", \"sha256_backend\": \"" +
         crypto::sha256_engine().name + "\", \"compiler\": \"" +
         json_escape(__VERSION__) + "\", \"build_type\": \"" +
         RITM_BUILD_TYPE + "\"}";
}

}  // namespace ritm::bench
