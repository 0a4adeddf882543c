/**
 * @file
 * Shared plumbing for the table/figure reproduction benches: argument
 * parsing (support/args.h) and fixed-width table rendering.  Every
 * bench prints the rows the corresponding paper table reports
 * (EXPERIMENTS.md maps the outputs back to the paper).
 */
#pragma once

#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/harness.h"
#include "support/args.h"
#include "support/str.h"

namespace conair::bench {

/** Parses the bench's argv against @p flags (it takes no positional
 *  arguments).  Any problem is a one-line error and exit status 2. */
inline Args
benchArgs(int argc, char **argv, std::vector<FlagSpec> flags)
{
    Args args;
    std::string err;
    if (!parseArgs({std::move(flags)},
                   std::vector<std::string>(argv + 1, argv + argc), args,
                   err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        std::exit(2);
    }
    return args;
}

/** Simple fixed-width table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    void
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<size_t> width(headers_.size());
        for (size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &r : rows_)
            for (size_t c = 0; c < r.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], r[c].size());

        auto line = [&](const std::vector<std::string> &cells) {
            std::string out;
            for (size_t c = 0; c < width.size(); ++c) {
                std::string cell = c < cells.size() ? cells[c] : "";
                out += cell;
                out.append(width[c] - cell.size() + 2, ' ');
            }
            std::printf("%s\n", out.c_str());
        };
        line(headers_);
        std::string rule;
        for (size_t c = 0; c < width.size(); ++c)
            rule.append(width[c] + 2, '-');
        std::printf("%s\n", rule.c_str());
        for (const auto &r : rows_)
            line(r);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string
fmt(const char *f, ...)
{
    va_list ap;
    va_start(ap, f);
    char buf[256];
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

} // namespace conair::bench
