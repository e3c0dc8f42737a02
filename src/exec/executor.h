#ifndef GREDVIS_EXEC_EXECUTOR_H_
#define GREDVIS_EXEC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dvq/ast.h"
#include "storage/table.h"
#include "util/resource_guard.h"
#include "util/status.h"

namespace gred::exec {

/// A materialized query result: named columns plus row-major cells.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<std::vector<storage::Value>> rows;

  std::size_t num_rows() const { return rows.size(); }
  std::size_t num_columns() const { return column_names.size(); }

  /// Renders a small fixed-width preview (used by examples and the case
  /// study bench).
  std::string ToString(std::size_t max_rows = 20) const;
};

/// Join algorithm selection, exposed for benchmarking; results are
/// identical (verified by property tests).
enum class JoinStrategy { kHashJoin, kNestedLoop };

/// Executor engine selection. `kColumnar` is the vectorized engine:
/// scans borrow storage columns, filters evaluate predicates into
/// selection bitmaps, joins shuffle 32-bit row ids, and cells are copied
/// only into the final ResultSet. `kRowAtATime` is the original
/// executor, kept as the executable reference semantics. The two produce
/// bit-identical ResultSets (asserted by the differential suite in
/// tests/exec_reference_test.cc); see DESIGN.md's executor section.
enum class Engine { kColumnar, kRowAtATime };

/// Execution options.
struct ExecOptions {
  JoinStrategy join_strategy = JoinStrategy::kHashJoin;
  Engine engine = Engine::kColumnar;
  /// Test-only 64-bit value-hash override used by hash joins and
  /// group-by in both engines (nullptr = storage::Value::Hash, the
  /// production path). Injecting a degenerate hash — e.g. a constant —
  /// forces every row pair to hash-collide, proving the engines re-check
  /// actual key values after a hash match instead of trusting the hash.
  std::uint64_t (*value_hash)(const storage::Value&) = nullptr;
  /// Optional resource guard (not owned; nullptr = unguarded, the
  /// default — bit-identical to the pre-guard executor). When set, every
  /// operator loop charges the context deterministically: one tick per
  /// row visited, one row + its cells per row materialized, one join row
  /// per join output row. The first charge over a limit aborts the query
  /// with StatusCode::kResourceExhausted (or kCancelled after
  /// ExecContext::RequestCancel()); no partial ResultSet escapes and
  /// storage is never touched. Scalar subqueries share the same context,
  /// so their work counts against the parent query's budgets.
  ExecContext* context = nullptr;
};

/// Evaluates the relational core of a DVQ against a database instance.
///
/// Semantics follow nvBench's SQLite substrate with Vega-Zero extensions:
///  * Aliases are resolved before binding.
///  * Unknown tables/columns yield ExecutionError (this is precisely how a
///    DVQ with hallucinated schema "produces no chart" in the paper).
///  * `BIN c BY unit` rewrites c's values to bin labels and, when combined
///    with aggregates, participates in grouping.
///  * Aggregates without GROUP BY implicitly group by the non-aggregated
///    select columns (Vega-Zero's x-axis grouping).
///  * Scalar subqueries evaluate to their first cell (NULL when empty).
Result<ResultSet> Execute(const dvq::Query& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options = {});

/// Executes the full DVQ (chart type does not affect row computation).
Result<ResultSet> Execute(const dvq::DVQ& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options = {});

}  // namespace gred::exec

#endif  // GREDVIS_EXEC_EXECUTOR_H_
