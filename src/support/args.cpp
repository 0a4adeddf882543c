#include "support/args.h"

#include "support/str.h"

namespace conair {

namespace {

bool
isFlag(const std::string &word)
{
    return !word.empty() && word[0] == '-';
}

} // namespace

std::string
Args::text(const std::string &flag, const std::string &def) const
{
    auto it = given_.find(flag);
    return it == given_.end() ? def : it->second.front();
}

std::vector<std::string>
Args::list(const std::string &flag) const
{
    auto it = given_.find(flag);
    return it == given_.end() ? std::vector<std::string>{} : it->second;
}

uint64_t
Args::number(const std::string &flag, uint64_t def) const
{
    uint64_t v = def;
    auto it = given_.find(flag);
    if (it != given_.end())
        parseU64(it->second.front(), v); // validated by parseArgs()
    return v;
}

bool
parseArgs(const ArgSpec &spec, const std::vector<std::string> &argv,
          Args &out, std::string &err)
{
    for (size_t i = 0; i < argv.size(); ++i) {
        const std::string &word = argv[i];
        if (!isFlag(word)) {
            if (out.positionals.size() == spec.maxPositionals) {
                err = "unexpected argument '" + word + "'";
                return false;
            }
            out.positionals.push_back(word);
            continue;
        }
        const FlagSpec *flag = nullptr;
        for (const FlagSpec &f : spec.flags)
            if (f.name == word)
                flag = &f;
        if (!flag) {
            err = "unknown flag '" + word + "'";
            return false;
        }
        std::vector<std::string> &seen = out.given_[word];
        if (!seen.empty() && flag->kind != FlagKind::List) {
            err = word + " given twice";
            return false;
        }
        if (flag->kind == FlagKind::Switch) {
            seen.emplace_back();
            continue;
        }
        if (i + 1 == argv.size() || isFlag(argv[i + 1])) {
            err = word + " needs an operand";
            return false;
        }
        const std::string &operand = argv[++i];
        uint64_t v = 0;
        if (flag->kind == FlagKind::Number &&
            (!parseU64(operand, v) || v > flag->max)) {
            err = strfmt("%s: '%s' is not a number in [0, %llu]",
                         word.c_str(), operand.c_str(),
                         (unsigned long long)flag->max);
            return false;
        }
        seen.push_back(operand);
    }
    if (out.positionals.size() < spec.minPositionals) {
        err = strfmt("expected %u argument%s, got %zu",
                     spec.minPositionals,
                     spec.minPositionals == 1 ? "" : "s",
                     out.positionals.size());
        return false;
    }
    return true;
}

} // namespace conair
