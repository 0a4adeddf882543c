/**
 * @file
 * The one command-line parser every binary uses: argv is matched
 * against a table of the flags the command takes.  Each flag takes
 * either no operand or exactly one, and a number operand is range
 * checked while parsing, so a command never runs on a typo: an unknown
 * flag, a missing operand, a stray argument, a flag given twice (unless
 * its table entry is a List), or a malformed number is a one-line error.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace conair {

/** What follows a flag on the command line. */
enum class FlagKind
{
    Switch, ///< nothing
    Text,   ///< one operand
    List,   ///< one operand; the flag may be given more than once
    Number, ///< one operand: decimal digits, at most FlagSpec::max
};

/** One flag a command takes. */
struct FlagSpec
{
    std::string name; ///< spelling, e.g. "--seeds"
    FlagKind kind = FlagKind::Switch;
    uint64_t max = UINT64_MAX; ///< Number: the largest accepted value
};

/** Everything a command accepts. */
struct ArgSpec
{
    std::vector<FlagSpec> flags;
    unsigned minPositionals = 0; ///< bare (flag-less) arguments
    unsigned maxPositionals = 0;
};

/** A parsed command line. */
class Args
{
  public:
    /** The bare arguments, in order. */
    std::vector<std::string> positionals;

    bool has(const std::string &flag) const { return given_.count(flag); }

    /** The operand of @p flag, or @p def when it was not given. */
    std::string text(const std::string &flag,
                     const std::string &def = "") const;

    /** Every operand of List flag @p flag, in command-line order. */
    std::vector<std::string> list(const std::string &flag) const;

    /** The value of Number flag @p flag, or @p def when not given. */
    uint64_t number(const std::string &flag, uint64_t def) const;

  private:
    friend bool parseArgs(const ArgSpec &, const std::vector<std::string> &,
                          Args &, std::string &);

    /** Operands per given flag, one per occurrence ("" for a Switch). */
    std::map<std::string, std::vector<std::string>> given_;
};

/**
 * Parses @p argv (the words after the program or subcommand name)
 * against @p spec into @p out.  A word starting with '-' is a flag; any
 * other word is a positional, unless it is a flag's operand.  False on
 * the first problem, with a one-line reason in @p err.
 */
bool parseArgs(const ArgSpec &spec, const std::vector<std::string> &argv,
               Args &out, std::string &err);

} // namespace conair
