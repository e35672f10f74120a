// Tests for the bench-scale environment plumbing.
#include "support/scale.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace rbb {
namespace {

/// RAII environment-variable override.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(Scale, UnsetIsDefault) {
  const ScopedEnv env("RBB_BENCH_SCALE", nullptr);
  EXPECT_EQ(bench_scale(), BenchScale::kDefault);
}

TEST(Scale, RecognizesValuesCaseInsensitive) {
  {
    const ScopedEnv env("RBB_BENCH_SCALE", "smoke");
    EXPECT_EQ(bench_scale(), BenchScale::kSmoke);
  }
  {
    const ScopedEnv env("RBB_BENCH_SCALE", "PAPER");
    EXPECT_EQ(bench_scale(), BenchScale::kPaper);
  }
  {
    const ScopedEnv env("RBB_BENCH_SCALE", "Default");
    EXPECT_EQ(bench_scale(), BenchScale::kDefault);
  }
  {
    const ScopedEnv env("RBB_BENCH_SCALE", "MeGa");
    EXPECT_EQ(bench_scale(), BenchScale::kMega);
  }
  {
    const ScopedEnv env("RBB_BENCH_SCALE", "bogus");
    EXPECT_EQ(bench_scale(), BenchScale::kDefault);
  }
}

TEST(Scale, BySkaleSelectsCorrectValue) {
  EXPECT_EQ(by_scale(BenchScale::kSmoke, 1, 2, 3), 1);
  EXPECT_EQ(by_scale(BenchScale::kDefault, 1, 2, 3), 2);
  EXPECT_EQ(by_scale(BenchScale::kPaper, 1, 2, 3), 3);
}

TEST(Scale, MegaFallsBackToPaperInThreeArgForm) {
  // Experiments without mega-specific sizes run their paper sweeps.
  EXPECT_EQ(by_scale(BenchScale::kMega, 1, 2, 3), 3);
}

TEST(Scale, FourArgFormGivesMegaItsOwnValue) {
  EXPECT_EQ(by_scale(BenchScale::kSmoke, 1, 2, 3, 4), 1);
  EXPECT_EQ(by_scale(BenchScale::kDefault, 1, 2, 3, 4), 2);
  EXPECT_EQ(by_scale(BenchScale::kPaper, 1, 2, 3, 4), 3);
  EXPECT_EQ(by_scale(BenchScale::kMega, 1, 2, 3, 4), 4);
}

TEST(Scale, ToStringRoundTrip) {
  EXPECT_EQ(to_string(BenchScale::kSmoke), "smoke");
  EXPECT_EQ(to_string(BenchScale::kDefault), "default");
  EXPECT_EQ(to_string(BenchScale::kPaper), "paper");
  EXPECT_EQ(to_string(BenchScale::kMega), "mega");
}

}  // namespace
}  // namespace rbb
