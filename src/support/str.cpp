#include "support/str.h"

#include <cstring>
#include <fstream>
#include <iterator>

namespace conair {

std::string
vstrfmt(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out(n > 0 ? n : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), n + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
withExtension(const std::string &path, const std::string &ext)
{
    size_t dot = path.rfind('.');
    if (dot == std::string::npos || path.find('/', dot) != std::string::npos)
        dot = path.size();
    return path.substr(0, dot) + ext;
}

bool
readFile(const std::string &path, std::string &out, std::string &err)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        err = "cannot open " + path;
        return false;
    }
    out.assign(std::istreambuf_iterator<char>(f), {});
    return true;
}

bool
writeFile(const std::string &path, const std::string &content,
          std::string &err)
{
    std::ofstream f(path, std::ios::binary);
    f << content;
    f.close();
    if (f)
        return true;
    err = "cannot write " + path;
    return false;
}

bool
writeFile(const std::string &path, const std::string &content,
          std::FILE *log)
{
    std::string err;
    if (!writeFile(path, content, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return false;
    }
    if (log)
        std::fprintf(log, "wrote %s\n", path.c_str());
    return true;
}

std::vector<std::string>
split(const std::string &s, char sep, bool dropEmpty)
{
    std::vector<std::string> parts(1);
    for (char c : s) {
        if (c != sep)
            parts.back() += c;
        else if (!dropEmpty || !parts.back().empty())
            parts.emplace_back();
    }
    if (dropEmpty && parts.back().empty())
        parts.pop_back();
    return parts;
}

bool
parseU64(const std::string &s, uint64_t &out)
{
    if (s.empty())
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        uint64_t d = uint64_t(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vstrfmt(fmt, ap);
    va_end(ap);
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
fpToStr(double v)
{
    // %.17g round-trips IEEE doubles exactly.
    std::string s = strfmt("%.17g", v);
    // Ensure the token is recognizably floating point when parsed back.
    if (s.find_first_of(".eEni") == std::string::npos)
        s += ".0";
    return s;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           std::memcmp(s.data(), prefix.data(), prefix.size()) == 0;
}

std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          default: out += c;
        }
    }
    return out;
}

std::string
unescape(const std::string &s)
{
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 == s.size()) {
            out += s[i];
            continue;
        }
        ++i;
        switch (s[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case '\\': out += '\\'; break;
          case '"': out += '"'; break;
          default: out += s[i];
        }
    }
    return out;
}

} // namespace conair
