#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace losstomo::util {
namespace {

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesTypedValues) {
  const auto args = make_args({"m=50", "p=0.25", "name=tree", "flag=true"});
  EXPECT_EQ(args.get_int("m", 0), 50);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.25);
  EXPECT_EQ(args.get_string("name", ""), "tree");
  EXPECT_TRUE(args.get_bool("flag", false));
  args.finish();
}

TEST(Args, DefaultsWhenAbsent) {
  const auto args = make_args({});
  EXPECT_EQ(args.get_int("m", 7), 7);
  EXPECT_EQ(args.get_size("n", 9u), 9u);
  EXPECT_FALSE(args.get_bool("flag", false));
  args.finish();
}

TEST(Args, ListParsing) {
  const auto args = make_args({"p=0.1,0.2", "m=1,2,3"});
  EXPECT_EQ(args.get_doubles("p", {}), (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(args.get_ints("m", {}), (std::vector<int>{1, 2, 3}));
  args.finish();
}

TEST(Args, RejectsMalformedArgument) {
  EXPECT_THROW(make_args({"novalue"}), std::invalid_argument);
  EXPECT_THROW(make_args({"=5"}), std::invalid_argument);
}

TEST(Args, RejectsBadBoolean) {
  const auto args = make_args({"flag=maybe"});
  EXPECT_THROW((void)args.get_bool("flag", false), std::invalid_argument);
}

TEST(Args, FinishFlagsUnknownKeys) {
  const auto args = make_args({"mm=50"});  // typo for m
  (void)args.get_int("m", 0);
  EXPECT_THROW(args.finish(), std::invalid_argument);
}

TEST(Table, AlignedOutput) {
  Table t({"a", "long-header"});
  t.add_row({"x", "1"});
  t.add_row({"yyyy", "2"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("yyyy"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Args, AcceptsGnuStyleFlagSpellings) {
  const char* argv[] = {"prog", "--json", "out.json", "--m=7", "p=0.5"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_string("json", ""), "out.json");
  EXPECT_EQ(args.get_int("m", 0), 7);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.5);
  args.finish();
}

TEST(Args, FlagMissingValueIsRejected) {
  const char* trailing[] = {"prog", "--json"};
  EXPECT_THROW(Args(2, trailing), std::invalid_argument);
  // A following flag means the value was forgotten, not that the flag
  // should swallow it.
  const char* swallowed[] = {"prog", "--json", "--full=1"};
  EXPECT_THROW(Args(3, swallowed), std::invalid_argument);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
  EXPECT_EQ(Table::pct(0.912745, 2), "91.27%");
  EXPECT_EQ(Table::pct(0.5, 0), "50%");
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  // Burn a little CPU deterministically.
  volatile double acc = 0.0;
  for (int i = 0; i < 100000; ++i) acc = acc + static_cast<double>(i) * 1e-9;
  EXPECT_GT(timer.seconds(), 0.0);
  EXPECT_GE(timer.millis(), timer.seconds() * 1000.0 * 0.99);
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
}

// Burns enough CPU that a monotonic clock must advance through it.
double busy_work(int iterations = 200000) {
  volatile double acc = 0.0;
  for (int i = 0; i < iterations; ++i) {
    acc = acc + static_cast<double>(i) * 1e-9;
  }
  return acc;
}

TEST(Timer, PauseFreezesTheClock) {
  Timer timer;
  EXPECT_TRUE(timer.running());
  timer.pause();
  EXPECT_FALSE(timer.running());
  const double frozen = timer.seconds();
  busy_work();
  // Paused time never accrues, no matter how much wall time passes.
  EXPECT_EQ(timer.seconds(), frozen);
  timer.resume();
  EXPECT_TRUE(timer.running());
  busy_work();
  EXPECT_GT(timer.seconds(), frozen);
}

TEST(Timer, PauseResumeAccumulatesAcrossIntervals) {
  Timer timer;
  busy_work();
  timer.pause();
  const double first = timer.seconds();
  EXPECT_GT(first, 0.0);
  busy_work();  // excluded
  timer.resume();
  busy_work();
  timer.pause();
  const double second = timer.seconds();
  // The second reading banks the first interval plus the new one.
  EXPECT_GT(second, first);
  busy_work();  // excluded again
  EXPECT_EQ(timer.seconds(), second);
}

TEST(Timer, RedundantPauseAndResumeAreNoOps) {
  Timer timer;
  timer.pause();
  const double frozen = timer.seconds();
  timer.pause();  // already paused
  EXPECT_EQ(timer.seconds(), frozen);
  timer.resume();
  timer.resume();  // already running: must not re-bank or reset the start
  busy_work();
  EXPECT_GT(timer.seconds(), frozen);
}

TEST(Timer, ResetClearsBankAndRestarts) {
  Timer timer;
  busy_work();
  timer.pause();
  timer.reset();
  EXPECT_TRUE(timer.running());
  const double after_reset = timer.seconds();
  EXPECT_LT(after_reset, 0.5);  // the bank is gone
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  using json::escaped;
  EXPECT_EQ(escaped("plain"), "\"plain\"");
  EXPECT_EQ(escaped("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(escaped("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(escaped(std::string_view("nul\0byte", 8)), "\"nul\\u0000byte\"");
  EXPECT_EQ(escaped("tab\tnewline\n"), "\"tab\\u0009newline\\u000a\"");
}

TEST(Json, NumbersEncodeNonFiniteAsNull) {
  using json::number;
  EXPECT_EQ(number(1.5), "1.5");
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");
  // Default precision carries 12 significant digits.
  EXPECT_EQ(number(1.0 / 3.0), "0.333333333333");
}

TEST(Json, WriterEmitsNestedStructure) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.key("name").value("run");
  w.key("count").value(std::uint64_t{3});
  w.key("items").begin_array(/*compact=*/true);
  w.value(1).value(2);
  w.end_array();
  w.key("nothing").null();
  w.end_object();
  w.finish();
  const std::string text = os.str();
  EXPECT_NE(text.find("\"name\": \"run\""), std::string::npos);
  EXPECT_NE(text.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(text.find("[1, 2 ]"), std::string::npos);
  EXPECT_NE(text.find("\"nothing\": null"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Json, WriterRejectsUnbalancedDocuments) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  EXPECT_THROW(w.finish(), std::logic_error);
  std::ostringstream os2;
  json::Writer w2(os2);
  EXPECT_THROW(w2.key("oops"), std::logic_error);  // key outside an object
}

}  // namespace
}  // namespace losstomo::util
