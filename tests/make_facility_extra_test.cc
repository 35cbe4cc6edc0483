// Additional make-facility scenarios: deep chains, multiple targets,
// undo interplay, rebuilding after deletions, and the Figure-3 mod_time
// semantics under missing intermediates.

#include <gtest/gtest.h>

#include "core/database.h"
#include "env/command_runner.h"
#include "env/make_facility.h"
#include "env/vfs.h"

namespace cactis::env {
namespace {

class MakeExtraTest : public ::testing::Test {
 protected:
  MakeExtraTest() : vfs_(&clock_) {}
  void SetUp() override {
    make_ = std::move(MakeFacility::Attach(&db_, &vfs_, &runner_))
                .value_or(nullptr);
    ASSERT_NE(make_, nullptr);
  }

  SimClock clock_;
  VirtualFileSystem vfs_;
  CommandRunner runner_;
  core::Database db_;
  std::unique_ptr<MakeFacility> make_;
};

TEST_F(MakeExtraTest, DeepChainBuildsInOrderOnce) {
  // gen0 -> gen1 -> ... -> gen7, each from the previous.
  vfs_.Write("gen0", "seed");
  ASSERT_TRUE(make_->AddSource("gen0").ok());
  for (int i = 1; i < 8; ++i) {
    std::string cur = "gen" + std::to_string(i);
    std::string prev = "gen" + std::to_string(i - 1);
    ASSERT_TRUE(make_->AddRule(cur, "make " + cur, {prev}).ok());
  }
  auto n = make_->Build("gen7");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 7u);
  // Strictly ascending: each stage after its input.
  for (int i = 1; i < 7; ++i) {
    EXPECT_LT(vfs_.MTime("gen" + std::to_string(i)).ticks,
              vfs_.MTime("gen" + std::to_string(i + 1)).ticks);
  }
  // Editing the middle rebuilds only downstream.
  runner_.ClearLog();
  vfs_.Touch("gen4");
  ASSERT_TRUE(make_->Build("gen7").ok());
  EXPECT_EQ(runner_.execution_count(), 3u);  // gen5 gen6 gen7
}

TEST_F(MakeExtraTest, IndependentTargetsDoNotInterfere) {
  vfs_.Write("a.c", "a");
  vfs_.Write("b.c", "b");
  ASSERT_TRUE(make_->AddSource("a.c").ok());
  ASSERT_TRUE(make_->AddSource("b.c").ok());
  ASSERT_TRUE(make_->AddRule("a.out", "cc a", {"a.c"}).ok());
  ASSERT_TRUE(make_->AddRule("b.out", "cc b", {"b.c"}).ok());

  EXPECT_EQ(*make_->Build("a.out"), 1u);
  // b was never built; building a again is a no-op.
  EXPECT_EQ(*make_->Build("a.out"), 0u);
  EXPECT_EQ(*make_->Build("b.out"), 1u);
  EXPECT_FALSE(vfs_.Exists("nonexistent"));
}

TEST_F(MakeExtraTest, DeletedOutputIsRecreated) {
  vfs_.Write("src.c", "x");
  ASSERT_TRUE(make_->AddSource("src.c").ok());
  ASSERT_TRUE(make_->AddRule("out", "cc out", {"src.c"}).ok());
  ASSERT_TRUE(make_->Build("out").ok());
  ASSERT_TRUE(vfs_.Exists("out"));

  ASSERT_TRUE(vfs_.Remove("out").ok());
  auto n = make_->Build("out");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_TRUE(vfs_.Exists("out"));
}

TEST_F(MakeExtraTest, ModTimeOfChainIsYoungestTransitively) {
  vfs_.Write("s1", "x");
  vfs_.Write("s2", "y");
  ASSERT_TRUE(make_->AddSource("s1").ok());
  ASSERT_TRUE(make_->AddSource("s2").ok());
  ASSERT_TRUE(make_->AddRule("mid", "mk mid", {"s1"}).ok());
  ASSERT_TRUE(make_->AddRule("top", "mk top", {"mid", "s2"}).ok());
  ASSERT_TRUE(make_->Build("top").ok());

  vfs_.Touch("s1");  // deepest leaf becomes the youngest
  auto mt = make_->ModTime("top");
  ASSERT_TRUE(mt.ok());
  EXPECT_EQ(mt->ticks, vfs_.MTime("s1").ticks);
}

TEST_F(MakeExtraTest, UnknownTargetAndDuplicateRules) {
  EXPECT_FALSE(make_->Build("ghost").ok());
  vfs_.Write("f", "x");
  ASSERT_TRUE(make_->AddSource("f").ok());
  EXPECT_FALSE(make_->AddSource("f").ok());
  EXPECT_FALSE(make_->AddRule("g", "cmd", {"missing-input"}).ok());
}

TEST_F(MakeExtraTest, ManyConsumersOfOneHeaderEachRebuildOnce) {
  vfs_.Write("common.h", "h");
  ASSERT_TRUE(make_->AddSource("common.h").ok());
  std::vector<std::string> objs;
  for (int i = 0; i < 12; ++i) {
    std::string src = std::string("m") + std::to_string(i) + ".c";
    std::string obj = std::string("m") + std::to_string(i) + ".o";
    vfs_.Write(src, "s");
    ASSERT_TRUE(make_->AddSource(src).ok());
    ASSERT_TRUE(make_->AddRule(obj, "cc " + obj, {src, "common.h"}).ok());
    objs.push_back(obj);
  }
  ASSERT_TRUE(make_->AddRule("lib", "ar lib", objs).ok());
  EXPECT_EQ(*make_->Build("lib"), 13u);
  runner_.ClearLog();
  vfs_.Touch("common.h");
  EXPECT_EQ(*make_->Build("lib"), 13u);  // all objects + the archive
  // And exactly once each.
  std::set<std::string> unique(runner_.executions().begin(),
                               runner_.executions().end());
  EXPECT_EQ(unique.size(), runner_.executions().size());
}

}  // namespace
}  // namespace cactis::env
