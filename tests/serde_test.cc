#include <sstream>

#include <gtest/gtest.h>

#include "src/dist/discrete.h"
#include "src/dist/gaussian.h"
#include "src/dist/learner.h"
#include "src/serde/json_writer.h"
#include "src/serde/table_printer.h"

namespace ausdb {
namespace serde {
namespace {

using dist::RandomVar;

TEST(JsonWriterTest, Distributions) {
  dist::PointDist p(5.0);
  EXPECT_EQ(ToJson(p), "{\"kind\":\"point\",\"value\":5}");
  dist::GaussianDist g(1.0, 2.0);
  EXPECT_EQ(ToJson(g),
            "{\"kind\":\"gaussian\",\"mean\":1,\"variance\":2}");
  auto h = dist::HistogramDist::Make({0.0, 1.0, 2.0}, {0.25, 0.75});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(ToJson(*h),
            "{\"kind\":\"histogram\",\"edges\":[0,1,2],"
            "\"probs\":[0.25,0.75]}");
  auto d = dist::DiscreteDist::Make({1.0, 2.0}, {0.5, 0.5});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(ToJson(*d),
            "{\"kind\":\"discrete\",\"values\":[1,2],"
            "\"probs\":[0.5,0.5]}");
}

TEST(JsonWriterTest, ConfidenceIntervalAndAccuracy) {
  accuracy::ConfidenceInterval ci{1.0, 2.0, 0.9};
  EXPECT_EQ(ToJson(ci), "{\"lo\":1,\"hi\":2,\"confidence\":0.9}");

  accuracy::AccuracyInfo info;
  info.sample_size = 20;
  info.mean_ci = ci;
  const std::string json = ToJson(info);
  EXPECT_NE(json.find("\"n\":20"), std::string::npos);
  EXPECT_NE(json.find("\"method\":\"analytical\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_ci\":"), std::string::npos);
  EXPECT_EQ(json.find("\"variance_ci\""), std::string::npos);
}

TEST(JsonWriterTest, NonFiniteRendersNull) {
  accuracy::ConfidenceInterval ci{
      0.0, std::numeric_limits<double>::infinity(), 0.9};
  EXPECT_EQ(ToJson(ci), "{\"lo\":0,\"hi\":null,\"confidence\":0.9}");
}

TEST(JsonWriterTest, Values) {
  EXPECT_EQ(ToJson(expr::Value()), "null");
  EXPECT_EQ(ToJson(expr::Value(true)), "true");
  EXPECT_EQ(ToJson(expr::Value(1.5)), "1.5");
  EXPECT_EQ(ToJson(expr::Value(std::string("x"))), "\"x\"");
  RandomVar rv(std::make_shared<dist::GaussianDist>(0.0, 1.0), 20);
  const std::string json = ToJson(expr::Value(rv));
  EXPECT_NE(json.find("\"distribution\":{\"kind\":\"gaussian\""),
            std::string::npos);
  EXPECT_NE(json.find("\"n\":20"), std::string::npos);
}

TEST(JsonWriterTest, TupleWithAnnotations) {
  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"id", engine::FieldType::kString}).ok());
  ASSERT_TRUE(
      schema.AddField({"x", engine::FieldType::kUncertain}).ok());
  engine::Tuple t(
      {expr::Value(std::string("a")),
       expr::Value(RandomVar(
           std::make_shared<dist::GaussianDist>(1.0, 1.0), 10))});
  t.set_membership_prob(0.7);
  t.set_membership_df_n(10);
  t.set_membership_ci({0.5, 0.9, 0.9});
  t.set_significance(hypothesis::TestOutcome::kTrue);
  accuracy::AccuracyInfo info;
  info.sample_size = 10;
  info.mean_ci = accuracy::ConfidenceInterval{0.0, 2.0, 0.9};
  t.set_accuracy(1, info);

  const std::string json = ToJson(t, schema);
  EXPECT_NE(json.find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"x_accuracy\":"), std::string::npos);
  EXPECT_NE(json.find("\"_prob\":0.7"), std::string::npos);
  EXPECT_NE(json.find("\"_prob_ci\":"), std::string::npos);
  EXPECT_NE(json.find("\"_significance\":\"TRUE\""), std::string::npos);
}

TEST(TablePrinterTest, AlignsAndAnnotates) {
  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"road", engine::FieldType::kString}).ok());
  ASSERT_TRUE(
      schema.AddField({"delay", engine::FieldType::kUncertain}).ok());
  std::vector<engine::Tuple> tuples;
  engine::Tuple t(
      {expr::Value(std::string("r19")),
       expr::Value(RandomVar(
           std::make_shared<dist::GaussianDist>(50.0, 4.0), 3))});
  t.set_membership_prob(0.66);
  tuples.push_back(t);

  std::ostringstream os;
  PrintTable(os, schema, tuples);
  const std::string out = os.str();
  EXPECT_NE(out.find("| road"), std::string::npos);
  EXPECT_NE(out.find("| delay"), std::string::npos);
  EXPECT_NE(out.find("| prob"), std::string::npos);
  EXPECT_NE(out.find("r19"), std::string::npos);
  EXPECT_NE(out.find("1 row(s)"), std::string::npos);
}

TEST(TablePrinterTest, EmptyResult) {
  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"x", engine::FieldType::kDouble}).ok());
  std::ostringstream os;
  PrintTable(os, schema, {});
  EXPECT_NE(os.str().find("0 row(s)"), std::string::npos);
}

TEST(TablePrinterTest, TruncatesLongCells) {
  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"s", engine::FieldType::kString}).ok());
  std::vector<engine::Tuple> tuples;
  tuples.emplace_back(std::vector<expr::Value>{
      expr::Value(std::string(100, 'x'))});
  std::ostringstream os;
  TablePrintOptions opts;
  opts.max_cell_width = 10;
  PrintTable(os, schema, tuples, opts);
  // Value::ToString quotes strings, so the cell starts with a quote.
  EXPECT_NE(os.str().find("'xxxxxx..."), std::string::npos);
}

}  // namespace
}  // namespace serde
}  // namespace ausdb

// Appended: numeric round-trip edge cases for the JSON writer.
namespace ausdb {
namespace serde {
namespace {

TEST(JsonNumberTest, RoundTripsTrickyDoubles) {
  for (double v : {1.0 / 3.0, 0.1, 1e-300, 1e300, -0.0, 123456.789,
                   2.2250738585072014e-308}) {
    const std::string json = ToJson(expr::Value(v));
    EXPECT_EQ(std::strtod(json.c_str(), nullptr), v) << json;
  }
}

TEST(JsonNumberTest, ShortRepresentationPreferred) {
  EXPECT_EQ(ToJson(expr::Value(0.9)), "0.9");
  EXPECT_EQ(ToJson(expr::Value(0.25)), "0.25");
  EXPECT_EQ(ToJson(expr::Value(42.0)), "42");
}

}  // namespace
}  // namespace serde
}  // namespace ausdb
