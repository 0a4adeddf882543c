/**
 * @file
 * Scratch files and directories for tests, private to the process: two
 * runs of one suite at once (say a sanitizer build's ctest beside
 * another's) never write, read or delete each other's files.
 */
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace conair::testutil {

/** A path under gtest's temp dir named after @p name and this process.
 *  Nothing is there when it is made, and whatever the test left there
 *  goes with it. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(::testing::TempDir() + "conair-" +
                std::to_string(::getpid()) + "-" + name)
    {
        std::filesystem::remove_all(path_);
    }

    ~TempPath()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempPath(const TempPath &) = delete;
    TempPath &operator=(const TempPath &) = delete;

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

} // namespace conair::testutil
