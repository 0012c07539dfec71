// Field checks shared by the machine-model configs' validate() methods. Each
// check throws std::invalid_argument naming the config, the field and the
// offending value, e.g. "GpuDeviceConfig: num_sms must be >= 1, got 0".
#pragma once

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace afmm {

class ConfigCheck {
 public:
  explicit ConfigCheck(const char* config) : config_(config) {}

  void at_least(const char* field, int v, int min) const {
    if (v < min) fail(field, ">= " + std::to_string(min), v);
  }
  // Finite and > 0: rates, clocks and bandwidths (they divide).
  void positive(const char* field, double v) const {
    if (!(std::isfinite(v) && v > 0.0)) fail(field, "finite and > 0", v);
  }
  // Finite and >= 0: latencies, overheads, per-op costs and backoffs.
  void non_negative(const char* field, double v) const {
    if (!(std::isfinite(v) && v >= 0.0)) fail(field, "finite and >= 0", v);
  }

 private:
  template <typename T>
  [[noreturn]] void fail(const char* field, const std::string& rule,
                         T v) const {
    std::ostringstream msg;
    msg << config_ << ": " << field << " must be " << rule << ", got " << v;
    throw std::invalid_argument(msg.str());
  }

  const char* config_;
};

}  // namespace afmm
