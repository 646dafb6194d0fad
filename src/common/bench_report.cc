#include "common/bench_report.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace capd {
namespace {

#ifndef CAPD_BUILD_TYPE
#define CAPD_BUILD_TYPE "unknown"
#endif

// Shortest decimal that round-trips to the same bits — deterministic and
// locale-independent (same rationale as report_json.cc).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string JsonString(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          os << esc;
        } else {
          os << c;
        }
    }
  }
  os << '"';
  return os.str();
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kValue:
      return "value";
    case MetricKind::kTimeMs:
      return "time_ms";
  }
  return "value";
}

BenchReport::BenchReport(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchReport::AddCounter(const std::string& name, uint64_t v) {
  for (const BenchMetric& m : metrics_) {
    if (m.name == name) {
      std::fprintf(stderr, "BenchReport: duplicate metric '%s'\n",
                   name.c_str());
      std::abort();
    }
  }
  BenchMetric m;
  m.name = name;
  m.kind = MetricKind::kCounter;
  m.count = v;
  metrics_.push_back(std::move(m));
}

void BenchReport::AddValue(const std::string& name, double v) {
  AddCounter(name, 0);  // reuse the duplicate check + slot
  metrics_.back().kind = MetricKind::kValue;
  metrics_.back().value = v;
}

void BenchReport::AddTimeMs(const std::string& name, double v) {
  AddCounter(name, 0);
  metrics_.back().kind = MetricKind::kTimeMs;
  metrics_.back().value = v;
}

std::string BenchReport::ToJson() const {
  const char* sha = std::getenv("CAPD_GIT_SHA");
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": " << kBenchReportJsonVersion << ",\n";
  os << "  \"bench\": " << JsonString(bench_name_) << ",\n";
  os << "  \"meta\": {\n";
  os << "    \"rows\": " << rows_ << ",\n";
  os << "    \"seed\": " << seed_ << ",\n";
  os << "    \"threads\": " << threads_ << ",\n";
  os << "    \"build_type\": " << JsonString(CAPD_BUILD_TYPE) << ",\n";
  os << "    \"git_sha\": "
     << JsonString(sha != nullptr && *sha != '\0' ? sha : "unknown") << "\n";
  os << "  },\n";
  os << "  \"metrics\": [";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const BenchMetric& m = metrics_[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"name\": " << JsonString(m.name) << ", \"kind\": \""
       << MetricKindName(m.kind) << "\", \"value\": ";
    if (m.kind == MetricKind::kCounter) {
      os << m.count;
    } else {
      os << JsonNumber(m.value);
    }
    os << "}";
  }
  os << (metrics_.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

bool BenchReport::WriteJsonFile(const std::string& path,
                                std::string* error) const {
  const std::string json = ToJson();
  if (path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open '" + path + "' for writing";
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  if (!ok) *error = "short write to '" + path + "'";
  return ok;
}

namespace {

// Plain decimal digits that fit in 64 bits: strtoull would also take a
// sign (negating the value after a '-') and saturate on overflow.
bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace

bool ParseBenchFlags(int argc, char* const* argv, BenchFlags* flags,
                     std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        *error = std::string("missing value for ") + flag;
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      flags->help = true;
    } else if (arg == "--rows") {
      const char* v = next("--rows");
      if (v == nullptr) return false;
      if (!ParseU64(v, &flags->rows) || flags->rows == 0) {
        *error = std::string("invalid --rows value '") + v + "'";
        return false;
      }
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      if (!ParseU64(v, &flags->seed) || flags->seed == 0) {
        *error = std::string("invalid --seed value '") + v + "'";
        return false;
      }
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr) return false;
      uint64_t t = 0;
      if (!ParseU64(v, &t) || t == 0 || t > 256) {
        *error = std::string("invalid --threads value '") + v + "'";
        return false;
      }
      flags->threads = static_cast<int>(t);
    } else if (arg == "--json") {
      const char* v = next("--json");
      if (v == nullptr) return false;
      flags->json_path = v;
    } else {
      *error = "unknown argument '" + arg + "'";
      return false;
    }
  }
  return true;
}

std::string BenchUsage(const std::string& prog) {
  return prog +
         " [--rows N] [--seed N] [--threads N] [--json PATH|-] [--help]";
}

}  // namespace capd
