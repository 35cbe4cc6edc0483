// The section-4 UIMS example: a widget tree whose screen contents are
// derived attributes; edits re-render exactly the affected path.

#include <gtest/gtest.h>

#include "env/display.h"

namespace cactis::env {
namespace {

class DisplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = DisplayManager::Attach(&db_);
    ASSERT_TRUE(d.ok()) << d.status();
    display_ = std::move(d).value();
  }

  void BuildDashboard() {
    ASSERT_TRUE(display_->AddWidget("root", "box", "Build Status").ok());
    ASSERT_TRUE(
        display_->AddWidget("title", "label", "nightly #42", "root").ok());
    ASSERT_TRUE(
        display_->AddWidget("progress", "meter", "tests", "root").ok());
    ASSERT_TRUE(display_->SetLevel("progress", 3).ok());
  }

  core::Database db_;
  std::unique_ptr<DisplayManager> display_;
};

TEST_F(DisplayTest, ComposesChildFragments) {
  BuildDashboard();
  auto screen = display_->Render("root");
  ASSERT_TRUE(screen.ok()) << screen.status();
  EXPECT_EQ(*screen,
            "== Build Status ==\n"
            "  nightly #42\n"
            "  tests [###.......]");
}

TEST_F(DisplayTest, ScreenTracksDataAutomatically) {
  BuildDashboard();
  ASSERT_TRUE(display_->Render("root").ok());
  ASSERT_TRUE(display_->SetLevel("progress", 9).ok());
  ASSERT_TRUE(display_->SetText("title", "nightly #43").ok());
  auto screen = display_->Render("root");
  ASSERT_TRUE(screen.ok());
  EXPECT_NE(screen->find("nightly #43"), std::string::npos);
  EXPECT_NE(screen->find("[#########.]"), std::string::npos);
}

TEST_F(DisplayTest, RedrawIsIncremental) {
  BuildDashboard();
  // A second, unrelated box.
  ASSERT_TRUE(display_->AddWidget("other", "box", "Other Panel").ok());
  for (int i = 0; i < 20; ++i) {
    std::string name = "w";
    name.append(std::to_string(i));
    ASSERT_TRUE(display_
                    ->AddWidget(name, "label", "line " + std::to_string(i),
                                "other")
                    .ok());
  }
  ASSERT_TRUE(display_->Render("root").ok());
  ASSERT_TRUE(display_->Render("other").ok());

  // Editing the meter re-renders only meter -> root (and their exports),
  // never the 21 widgets of the other panel.
  db_.ResetStats();
  ASSERT_TRUE(display_->SetLevel("progress", 7).ok());
  ASSERT_TRUE(display_->Render("root").ok());
  EXPECT_LE(db_.eval_stats().rule_evaluations, 4u);
}

TEST_F(DisplayTest, NestedBoxesIndent) {
  ASSERT_TRUE(display_->AddWidget("outer", "box", "Outer").ok());
  ASSERT_TRUE(display_->AddWidget("inner", "box", "Inner", "outer").ok());
  ASSERT_TRUE(display_->AddWidget("leaf", "label", "deep", "inner").ok());
  auto screen = display_->Render("outer");
  ASSERT_TRUE(screen.ok());
  EXPECT_EQ(*screen,
            "== Outer ==\n"
            "  == Inner ==\n"
            "    deep");
}

TEST_F(DisplayTest, UnknownWidgetsRejected) {
  EXPECT_FALSE(display_->Render("ghost").ok());
  EXPECT_FALSE(display_->SetText("ghost", "x").ok());
  ASSERT_TRUE(display_->AddWidget("w", "label", "x").ok());
  EXPECT_FALSE(display_->AddWidget("w", "label", "again").ok());
}

}  // namespace
}  // namespace cactis::env
