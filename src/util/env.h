#pragma once

#include <string>

namespace contango {

/// \brief Reads an integer environment variable.  Unset (or empty) yields
/// the fallback, but a *set yet malformed* value throws instead of being
/// silently coerced — `CONTANGO_THREADS=abc` is a configuration mistake the
/// harness must surface, not paper over.  Benchmark drivers use these to
/// scale experiments (e.g. CONTANGO_MAX_SINKS for the Table V sweep).
/// \throws std::runtime_error naming the variable and its offending value
long env_long_strict(const char* name, long fallback);

/// Floating-point counterpart of env_long_strict.
/// \throws std::runtime_error naming the variable and its offending value
double env_double_strict(const char* name, double fallback);

/// Reads a string environment variable with a fallback.
std::string env_string(const char* name, const std::string& fallback);

/// True when the variable is set to a truthy value (anything but "", "0",
/// "false", "off", "no").
bool env_flag(const char* name);

}  // namespace contango
