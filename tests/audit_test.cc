// Static application auditor tests:
//
//  1. One synthetic application per finding code, asserting the code, the
//     severity, and the subject the auditor reports (PERF-SOLVER-FALLBACK is
//     unreachable from parser-validated templates — see its test).
//  2. The statement-level correctness helper on hand-mutated ASTs (the
//     parser cannot produce an unused parameter: it assigns indexes by
//     appearance).
//  3. Clean runs: all four paper workloads audit with zero error-severity
//     findings under the methodology's recommended exposure (the committed
//     tools/baselines/*.json are byte-diffed by CI; this guards the
//     zero-error claim those baselines document).
//  4. Strict registration: a DsspNode with SetStrictRegistration(true)
//     refuses an application with error findings and accepts it again once
//     strict mode is off.
//  5. JSON schema stability markers.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/audit.h"
#include "analysis/methodology.h"
#include "catalog/schema.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/node.h"
#include "sql/parser.h"
#include "templates/template.h"
#include "templates/template_set.h"
#include "workloads/application.h"

namespace dssp::analysis {
namespace {

using templates::QueryTemplate;
using templates::TemplateSet;
using templates::UpdateTemplate;

catalog::Catalog TestCatalog() {
  catalog::Catalog catalog;
  DSSP_CHECK(catalog
                 .AddTable(catalog::TableSchema(
                     "t1",
                     {{"a", catalog::ColumnType::kInt64},
                      {"b", catalog::ColumnType::kInt64},
                      {"c", catalog::ColumnType::kString}},
                     {"a"}))
                 .ok());
  DSSP_CHECK(catalog
                 .AddTable(catalog::TableSchema(
                     "t2",
                     {{"x", catalog::ColumnType::kInt64},
                      {"y", catalog::ColumnType::kString}},
                     {"x"}))
                 .ok());
  return catalog;
}

TemplateSet MakeTemplates(const catalog::Catalog& catalog,
                          const std::vector<std::string>& queries,
                          const std::vector<std::string>& updates) {
  TemplateSet set;
  for (const std::string& sql : queries) {
    DSSP_CHECK_OK(set.AddQuerySql(sql, catalog));
  }
  for (const std::string& sql : updates) {
    DSSP_CHECK_OK(set.AddUpdateSql(sql, catalog));
  }
  return set;
}

// The finding with `code` and `subject`, or nullptr.
const AuditFinding* Find(const AuditReport& report, std::string_view code,
                         std::string_view subject) {
  for (const AuditFinding& finding : report.findings) {
    if (finding.code == code && finding.subject == subject) return &finding;
  }
  return nullptr;
}

bool HasCode(const AuditReport& report, std::string_view code) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [&](const AuditFinding& f) { return f.code == code; });
}

// ----- Correctness lens ----------------------------------------------------

TEST(AuditCorrectness, TypeMismatchColumnVsLiteral) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set =
      MakeTemplates(catalog, {"SELECT * FROM t1 WHERE c = 5"}, {});
  const AuditReport report = AuditApplication(set, catalog);
  const AuditFinding* finding = Find(report, "COR-TYPE-MISMATCH", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kError);
  EXPECT_EQ(finding->lens, AuditLens::kCorrectness);
  EXPECT_FALSE(report.ok());
}

TEST(AuditCorrectness, TypeMismatchJoinColumns) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1, t2 WHERE t1.a = t2.y AND t1.a = ?"}, {});
  const AuditReport report = AuditApplication(set, catalog);
  const AuditFinding* finding = Find(report, "COR-TYPE-MISMATCH", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_NE(finding->message.find("joins"), std::string::npos);
}

TEST(AuditCorrectness, TypeMismatchInsertAndSet) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {},
      {"INSERT INTO t1 (a, b, c) VALUES (?, ?, 7)",
       "UPDATE t1 SET c = 5 WHERE a = ?"});
  const AuditReport report = AuditApplication(set, catalog);
  EXPECT_NE(Find(report, "COR-TYPE-MISMATCH", "U1"), nullptr);
  EXPECT_NE(Find(report, "COR-TYPE-MISMATCH", "U2"), nullptr);
  EXPECT_EQ(report.num_errors, 2u);
}

TEST(AuditCorrectness, DeadTemplateUnsatisfiableRange) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE a > 10 AND a < 5 AND b = ?"}, {});
  const AuditReport report = AuditApplication(set, catalog);
  const AuditFinding* finding = Find(report, "COR-DEAD-TEMPLATE", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kError);
  EXPECT_NE(finding->message.find("unsatisfiable"), std::string::npos);
}

TEST(AuditCorrectness, DeadTemplateFalseLiteralConjunct) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set =
      MakeTemplates(catalog, {"SELECT * FROM t1 WHERE 1 = 2 AND a = ?"}, {});
  const AuditReport report = AuditApplication(set, catalog);
  const AuditFinding* finding = Find(report, "COR-DEAD-TEMPLATE", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_NE(finding->message.find("always false"), std::string::npos);
}

TEST(AuditCorrectness, ConstConjunctIsInfo) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set =
      MakeTemplates(catalog, {"SELECT * FROM t1 WHERE 1 = 1 AND a = ?"}, {});
  const AuditReport report = AuditApplication(set, catalog);
  const AuditFinding* finding = Find(report, "COR-CONST-CONJUNCT", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kInfo);
  EXPECT_TRUE(report.ok());
}

TEST(AuditCorrectness, UnusedParameterViaHandMutatedAst) {
  const catalog::Catalog catalog = TestCatalog();
  auto parsed = sql::Parse("SELECT * FROM t1 WHERE a = ?");
  ASSERT_TRUE(parsed.ok());
  sql::Statement statement = std::move(*parsed);
  statement.num_params = 3;  // ?1 and ?2 now exist but are never used.
  std::vector<AuditFinding> findings;
  AuditStatementCorrectness(statement, catalog, "Q9", &findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].code, "COR-UNUSED-PARAM");
  EXPECT_EQ(findings[0].subject, "Q9 ?1");
  EXPECT_EQ(findings[0].severity, AuditSeverity::kWarning);
  EXPECT_EQ(findings[1].subject, "Q9 ?2");
}

TEST(AuditCorrectness, CleanTemplatesProduceNoFindings) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE a = ?"},
      {"INSERT INTO t1 (a, b, c) VALUES (?, ?, ?)", "DELETE FROM t1 WHERE a = ?"});
  const AuditReport report = AuditApplication(set, catalog);
  EXPECT_FALSE(HasCode(report, "COR-TYPE-MISMATCH"));
  EXPECT_FALSE(HasCode(report, "COR-DEAD-TEMPLATE"));
  EXPECT_FALSE(HasCode(report, "COR-UNUSED-PARAM"));
  EXPECT_TRUE(report.ok());
}

// ----- Performance lens ----------------------------------------------------

TEST(AuditPerformance, NoDiscriminatorScanWarning) {
  const catalog::Catalog catalog = TestCatalog();
  // Q1 has no `column op ?` conjunct, so no discriminator; the insert into
  // t1 makes it reachable. Q2 is indexable and must not be reported.
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1", "SELECT * FROM t1 WHERE a = ?"},
      {"INSERT INTO t1 (a, b, c) VALUES (?, ?, ?)"});
  const AuditReport report = AuditApplication(set, catalog);
  const AuditFinding* finding = Find(report, "PERF-NO-DISCRIMINATOR", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kWarning);
  EXPECT_EQ(Find(report, "PERF-NO-DISCRIMINATOR", "Q2"), nullptr);
}

TEST(AuditPerformance, NoDiscriminatorSilentWithoutRelevantUpdates) {
  const catalog::Catalog catalog = TestCatalog();
  // The only update touches t2, which is ignorable for Q1: scanning cost
  // can never be paid, so the finding is suppressed.
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1"}, {"DELETE FROM t2 WHERE x = ?"});
  EXPECT_FALSE(
      HasCode(AuditApplication(set, catalog), "PERF-NO-DISCRIMINATOR"));
}

TEST(AuditPerformance, AlwaysInvalidateInfoEscalatesWhenHot) {
  const catalog::Catalog catalog = TestCatalog();
  // The t1 slot is constrained only by the join conjunct, so every inserted
  // t1 row is admitted for every binding: statement-level refinement cannot
  // help and the pair compiles to kAlwaysInvalidate.
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1, t2 WHERE t1.a = t2.x AND t2.y = ?"},
      {"INSERT INTO t1 (a, b, c) VALUES (?, ?, ?)"});
  {
    const AuditReport report = AuditApplication(set, catalog);
    const AuditFinding* finding = Find(report, "PERF-ALWAYS-INVALIDATE", "U1");
    ASSERT_NE(finding, nullptr);
    EXPECT_EQ(finding->severity, AuditSeverity::kInfo);
  }
  {
    AuditOptions options;
    options.hot_updates = {"U1"};
    const AuditReport report = AuditApplication(set, catalog, options);
    const AuditFinding* finding = Find(report, "PERF-ALWAYS-INVALIDATE", "U1");
    ASSERT_NE(finding, nullptr);
    EXPECT_EQ(finding->severity, AuditSeverity::kWarning);
    EXPECT_NE(finding->message.find("declared hot"), std::string::npos);
  }
}

TEST(AuditPerformance, UnplannedQueryInfoForUncompilableTemplate) {
  const catalog::Catalog catalog = TestCatalog();
  // Q1's string-vs-int conjunct is rejected by the vectorized query
  // compiler (the interpreter raises the same error, but only at
  // execution time, so registration succeeds); Q2 compiles and must not
  // be reported.
  const TemplateSet set = MakeTemplates(
      catalog,
      {"SELECT * FROM t1 WHERE c = 5 AND a = ?",
       "SELECT * FROM t1 WHERE a = ?"},
      {});
  const AuditReport report = AuditApplication(set, catalog);
  const AuditFinding* finding = Find(report, "PERF-UNPLANNED-QUERY", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kInfo);
  EXPECT_EQ(finding->lens, AuditLens::kPerformance);
  EXPECT_NE(finding->message.find("interpreter"), std::string::npos);
  EXPECT_EQ(Find(report, "PERF-UNPLANNED-QUERY", "Q2"), nullptr);
}

TEST(AuditPerformance, UncompilableTemplateIsReportedOnce) {
  const catalog::Catalog catalog = TestCatalog();
  // A template with no compiled program runs the interpreter on every
  // execution; the home backend has nothing else to prepare, so the compile
  // failure yields exactly one finding, PERF-UNPLANNED-QUERY.
  const TemplateSet set = MakeTemplates(
      catalog,
      {"SELECT * FROM t1 WHERE c = 5 AND a = ?",
       "SELECT * FROM t1 WHERE a = ?"},
      {});
  const AuditReport report = AuditApplication(set, catalog);
  const AuditFinding* finding = Find(report, "PERF-UNPLANNED-QUERY", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kInfo);
  EXPECT_EQ(finding->lens, AuditLens::kPerformance);
  EXPECT_EQ(std::count_if(report.findings.begin(), report.findings.end(),
                          [](const AuditFinding& f) {
                            return f.subject == "Q1" &&
                                   f.lens == AuditLens::kPerformance;
                          }),
            1);
  EXPECT_EQ(Find(report, "PERF-UNPLANNED-QUERY", "Q2"), nullptr);
}

TEST(AuditPerformance, BlindUpdateWarning) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE a = ?"},
      {"DELETE FROM t1 WHERE a = ?"});
  ExposureAssignment exposure = ExposureAssignment::FullExposure(1, 1);
  exposure.update_levels[0] = ExposureLevel::kBlind;
  AuditOptions options;
  options.exposure = &exposure;
  const AuditReport report = AuditApplication(set, catalog, options);
  const AuditFinding* finding = Find(report, "PERF-BLIND-UPDATE", "U1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kWarning);
}

TEST(AuditPerformance, SolverFallbackUnreachableOnPaperWorkloads) {
  // PERF-SOLVER-FALLBACK mirrors PlanKind::kSolverFallback, which the plan
  // compiler emits only for statement shapes the parser cannot produce
  // (mismatched INSERT/SET lists). Assert the absence claim the finding's
  // reachability rests on: no paper workload compiles to a fallback pair.
  for (const char* name : {"toystore", "auction", "bboard", "bookstore"}) {
    service::DsspNode node;
    service::ScalableApp app(name, &node,
                             crypto::KeyRing::FromPassphrase("audit-test"));
    auto workload = workloads::MakeApplication(name);
    DSSP_CHECK_OK(workload->Setup(app, /*scale=*/0.05, /*seed=*/1));
    DSSP_CHECK_OK(app.Finalize());
    const auto& catalog = app.home().database().catalog();
    const InvalidationPlan plan =
        InvalidationPlan::Compile(app.templates(), catalog);
    EXPECT_EQ(plan.Summarize().solver_fallback, 0u) << name;
    EXPECT_FALSE(
        HasCode(AuditApplication(app.templates(), catalog),
                "PERF-SOLVER-FALLBACK"))
        << name;
  }
}

// ----- Security lens -------------------------------------------------------

TEST(AuditSecurity, ViewExposedUpdateIsError) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE a = ?"},
      {"DELETE FROM t1 WHERE a = ?"});
  ExposureAssignment exposure = ExposureAssignment::FullExposure(1, 1);
  exposure.update_levels[0] = ExposureLevel::kView;
  AuditOptions options;
  options.exposure = &exposure;
  const AuditReport report = AuditApplication(set, catalog, options);
  const AuditFinding* finding = Find(report, "SEC-VIEW-UPDATE", "U1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kError);
  EXPECT_FALSE(report.ok());
}

TEST(AuditSecurity, EqualityLeakOnEncryptedParams) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE c = ?"},
      {"UPDATE t1 SET b = ? WHERE a = ?"});
  ExposureAssignment exposure = ExposureAssignment::FullEncryption(1, 1);
  exposure.query_levels[0] = ExposureLevel::kTemplate;
  exposure.update_levels[0] = ExposureLevel::kTemplate;
  AuditOptions options;
  options.exposure = &exposure;
  const AuditReport report = AuditApplication(set, catalog, options);
  const AuditFinding* leak = Find(report, "SEC-EQ-LEAK", "t1.c");
  ASSERT_NE(leak, nullptr);
  EXPECT_EQ(leak->severity, AuditSeverity::kWarning);
  EXPECT_NE(leak->message.find("Q1"), std::string::npos);
  // The SET target and the predicate column of the template-level update
  // leak too.
  EXPECT_NE(Find(report, "SEC-EQ-LEAK", "t1.a"), nullptr);
  EXPECT_NE(Find(report, "SEC-EQ-LEAK", "t1.b"), nullptr);
}

TEST(AuditSecurity, PlaintextParamAndResultExposedInfos) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set =
      MakeTemplates(catalog, {"SELECT a, c FROM t1 WHERE b = ?"}, {});
  ExposureAssignment exposure = ExposureAssignment::FullExposure(1, 0);
  AuditOptions options;
  options.exposure = &exposure;
  const AuditReport report = AuditApplication(set, catalog, options);
  EXPECT_NE(Find(report, "SEC-PLAINTEXT-PARAM", "t1.b"), nullptr);
  EXPECT_NE(Find(report, "SEC-RESULT-EXPOSED", "t1.a"), nullptr);
  EXPECT_NE(Find(report, "SEC-RESULT-EXPOSED", "t1.c"), nullptr);
  // Dropped wholesale by include_info = false.
  AuditOptions no_info = options;
  no_info.include_info = false;
  const AuditReport filtered = AuditApplication(set, catalog, no_info);
  EXPECT_FALSE(HasCode(filtered, "SEC-PLAINTEXT-PARAM"));
  EXPECT_FALSE(HasCode(filtered, "SEC-RESULT-EXPOSED"));
  EXPECT_EQ(filtered.num_infos, 0u);
}

TEST(AuditSecurity, OverexposedWhenReductionIsFree) {
  const catalog::Catalog catalog = TestCatalog();
  // The only update touches t2 and is ignorable for Q1, so the IPM proves
  // every reduction free: full exposure is pure overexposure.
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE a = ?"},
      {"DELETE FROM t2 WHERE x = ?"});
  const ExposureAssignment exposure = ExposureAssignment::FullExposure(1, 1);
  AuditOptions options;
  options.exposure = &exposure;
  const AuditReport report = AuditApplication(set, catalog, options);
  const AuditFinding* finding = Find(report, "SEC-OVEREXPOSED", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kWarning);
  EXPECT_NE(Find(report, "SEC-OVEREXPOSED", "U1"), nullptr);
}

TEST(AuditSecurity, SensitiveExposedBeyondPolicyCapIsError) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set =
      MakeTemplates(catalog, {"SELECT * FROM t1 WHERE a = ?"}, {});
  CompulsoryPolicy policy;
  policy.MarkTableSensitive(catalog, "t1");
  const ExposureAssignment exposure = ExposureAssignment::FullExposure(1, 0);
  AuditOptions options;
  options.exposure = &exposure;
  options.policy = &policy;
  const AuditReport report = AuditApplication(set, catalog, options);
  const AuditFinding* finding = Find(report, "SEC-SENSITIVE-EXPOSED", "Q1");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, AuditSeverity::kError);
  EXPECT_FALSE(report.ok());
}

// ----- Paper workloads are clean / baselined -------------------------------

TEST(AuditWorkloads, MethodologyExposureAuditsWithZeroErrors) {
  for (const char* name : {"toystore", "auction", "bboard", "bookstore"}) {
    service::DsspNode node;
    service::ScalableApp app(name, &node,
                             crypto::KeyRing::FromPassphrase("audit-test"));
    auto workload = workloads::MakeApplication(name);
    DSSP_CHECK_OK(workload->Setup(app, /*scale=*/0.05, /*seed=*/1));
    DSSP_CHECK_OK(app.Finalize());
    const auto& catalog = app.home().database().catalog();
    const CompulsoryPolicy policy = workload->CompulsoryEncryption(catalog);
    const SecurityReport security =
        RunMethodology(app.templates(), catalog, policy);
    AuditOptions options;
    options.exposure = &security.final;
    options.policy = &policy;
    const AuditReport report =
        AuditApplication(app.templates(), catalog, options);
    EXPECT_EQ(report.num_errors, 0u)
        << name << ":\n"
        << report.ToText();
    // The methodology's own output can never be over- or under-exposed
    // relative to itself.
    EXPECT_FALSE(HasCode(report, "SEC-OVEREXPOSED")) << name;
    EXPECT_FALSE(HasCode(report, "SEC-SENSITIVE-EXPOSED")) << name;
    // Every paper-workload query template compiles to a vectorized
    // program: the home servers prepare every template and never fall back
    // to the interpreter.
    EXPECT_FALSE(HasCode(report, "PERF-UNPLANNED-QUERY")) << name;
  }
}

// ----- Strict registration -------------------------------------------------

TEST(AuditStrictRegistration, RefusesErrorFindingsAndListsThem) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE a > 10 AND a < 5 AND b = ?"}, {});

  service::DsspNode strict;
  strict.SetStrictRegistration(true);
  const Status refused = strict.RegisterApp("dead", &catalog, &set);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("COR-DEAD-TEMPLATE"), std::string::npos);
  EXPECT_FALSE(strict.HasApp("dead"));

  // Warnings alone do not block, and strict mode off never blocks.
  service::DsspNode lenient;
  EXPECT_TRUE(lenient.RegisterApp("dead", &catalog, &set).ok());

  const TemplateSet clean =
      MakeTemplates(catalog, {"SELECT * FROM t1 WHERE a = ?"}, {});
  EXPECT_TRUE(strict.RegisterApp("clean", &catalog, &clean).ok());
  EXPECT_TRUE(strict.HasApp("clean"));
}

// ----- Report formats ------------------------------------------------------

TEST(AuditReportFormat, JsonSchemaMarkersAndEscaping) {
  const catalog::Catalog catalog = TestCatalog();
  // The contradictory constraints force a dead-template finding whose
  // message embeds the literal with the raw double quote.
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE c = 'a\"b' AND c = 'z' AND a = ?"},
      {});
  const AuditReport report = AuditApplication(set, catalog);
  ASSERT_TRUE(HasCode(report, "COR-DEAD-TEMPLATE"));
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"audit_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"summary\": {\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
  // The quote inside the literal must be escaped, never raw.
  EXPECT_EQ(json.find("a\"b"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
}

TEST(AuditReportFormat, TextGroupsByLensAndCounts) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE c = 5", "SELECT * FROM t1"},
      {"INSERT INTO t1 (a, b, c) VALUES (?, ?, ?)"});
  const AuditReport report = AuditApplication(set, catalog);
  const std::string text = report.ToText();
  EXPECT_NE(text.find("== performance =="), std::string::npos);
  EXPECT_NE(text.find("== correctness =="), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
}

TEST(AuditReportFormat, FindingsAreSortedDeterministically) {
  const catalog::Catalog catalog = TestCatalog();
  const TemplateSet set = MakeTemplates(
      catalog, {"SELECT * FROM t1 WHERE c = 5", "SELECT * FROM t2 WHERE y = 1"},
      {});
  const AuditReport report = AuditApplication(set, catalog);
  for (size_t i = 1; i < report.findings.size(); ++i) {
    const AuditFinding& a = report.findings[i - 1];
    const AuditFinding& b = report.findings[i];
    EXPECT_LE(std::tie(a.lens, a.code, a.subject, a.message),
              std::tie(b.lens, b.code, b.subject, b.message));
  }
}

}  // namespace
}  // namespace dssp::analysis
