/**
 * @file
 * The one writer of Prometheus 0.0.4 family headers: every `/metrics`
 * body (the metrics registry, the campaign and run gauges, the HTTP
 * server's own counters) formats its `# HELP` / `# TYPE` lines here.
 */
#pragma once

#include <cstdint>
#include <string>

namespace conair {

/** Appends the `# HELP` line (@p help with backslash and newline
 *  escaped; 0.0.4 leaves double quotes alone there) and the
 *  `# TYPE` line of family @p name to @p out; the caller appends the
 *  family's samples. */
void promFamily(std::string &out, const std::string &name,
                const char *type, const std::string &help);

/** promFamily() followed by the family's one unlabelled sample. */
void promFamily(std::string &out, const std::string &name,
                const char *type, const std::string &help, uint64_t v);

} // namespace conair
