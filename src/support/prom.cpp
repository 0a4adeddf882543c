#include "support/prom.h"

#include "support/str.h"

namespace conair {

namespace {

/** HELP text escapes backslash and newline (exposition format 0.0.4
 *  leaves double quotes alone outside label values). */
std::string
promHelpText(const std::string &v)
{
    std::string out;
    for (char c : v) {
        if (c == '\\') {
            out += "\\\\";
            continue;
        }
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

void
promFamily(std::string &out, const std::string &name, const char *type,
           const std::string &help)
{
    out += strfmt("# HELP %s %s\n# TYPE %s %s\n", name.c_str(),
                  promHelpText(help).c_str(), name.c_str(), type);
}

void
promFamily(std::string &out, const std::string &name, const char *type,
           const std::string &help, uint64_t v)
{
    promFamily(out, name, type, help);
    out += strfmt("%s %llu\n", name.c_str(), (unsigned long long)v);
}

} // namespace conair
