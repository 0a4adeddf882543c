/**
 * @file
 * Small string helpers shared across the project (printf-style formatting,
 * joining, numeric rendering, reading and writing whole files).  Kept
 * minimal: the project targets GCC 12, whose libstdc++ does not ship
 * std::format.
 */
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace conair {

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** va_list variant of strfmt(). */
std::string vstrfmt(const char *fmt, va_list ap);

/** Joins @p parts with @p sep between consecutive elements. */
std::string join(const std::vector<std::string> &parts, const std::string &sep);

/** Renders a double the way the IR printer expects (round-trippable). */
std::string fpToStr(double v);

/** Splits @p s at every @p sep.  Empty parts are kept (so callers can
 *  reject "a,,b") unless @p dropEmpty. */
std::vector<std::string> split(const std::string &s, char sep,
                               bool dropEmpty = false);

/** Strict u64 parse: digits only (no sign, no whitespace, no trailing
 *  junk) and overflow is an error, so a mistyped number can never
 *  wrap into a silently different one.  False leaves @p out alone. */
bool parseU64(const std::string &s, uint64_t &out);

/** @p path with its last extension replaced by @p ext (".prom"), or
 *  @p ext appended when the file name has none. */
std::string withExtension(const std::string &path, const std::string &ext);

/** Reads the whole file @p path into @p out.  False, with
 *  "cannot open PATH" in @p err, when it cannot be opened. */
bool readFile(const std::string &path, std::string &out, std::string &err);

/** Writes @p content to the file @p path.  False, with
 *  "cannot write PATH" in @p err, when it cannot be written; @p err is
 *  left alone on success. */
bool writeFile(const std::string &path, const std::string &content,
               std::string &err);

/** The CLI form: writeFile(), then "wrote PATH" on @p log unless it is
 *  null.  False, after the one-line error on stderr, when the file
 *  cannot be written. */
bool writeFile(const std::string &path, const std::string &content,
               std::FILE *log);

/** True if @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Escapes a string for printing inside double quotes ("\n" etc.). */
std::string escape(const std::string &s);

/** Reverses escape(): interprets backslash escapes. */
std::string unescape(const std::string &s);

} // namespace conair
