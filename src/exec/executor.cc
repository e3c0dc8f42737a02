#include "exec/executor.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dvq/normalize.h"
#include "exec/chunk.h"
#include "exec/scalar.h"
#include "exec/vector_ops.h"
#include "util/strings.h"

namespace gred::exec {

namespace {

using storage::Value;

/// Charges the guard (when present) and propagates a tripped budget out
/// of the enclosing function. Unguarded execution (null context) is a
/// branch per use and nothing else, keeping the default path identical
/// to the pre-guard executor.
#define GRED_CHARGE(ctx, call)                             \
  do {                                                     \
    if ((ctx) != nullptr) GRED_RETURN_IF_ERROR((ctx)->call); \
  } while (false)

Value LiteralToValue(const dvq::Literal& lit) {
  switch (lit.kind) {
    case dvq::Literal::Kind::kInt:
      return Value::Int(lit.int_value);
    case dvq::Literal::Kind::kReal:
      return Value::Real(lit.real_value);
    case dvq::Literal::Kind::kString:
      return Value::Text(lit.string_value);
  }
  return Value::Null();
}

// ---------------------------------------------------------------------------
// Helpers shared by both engines (identical semantics by construction).
// ---------------------------------------------------------------------------

/// True when the ORDER BY expression `order` denotes the already-selected
/// expression `sel`. Aggregate and DISTINCT must match exactly; column
/// matching follows SQL's ORDER BY resolution rules rather than surface
/// text:
///  * A bare (unqualified) ORDER BY name binds to the result column of
///    that name, whatever qualifier the select list spelled it with.
///  * A qualified ORDER BY reference matches iff it resolves to the same
///    working-set slot as the selected column, so `ORDER BY t.c` unifies
///    with `SELECT c` (and never with a same-named column of another
///    table). Unresolvable references fall back to textual comparison so
///    the unknown name still surfaces through the normal resolution
///    error path.
bool OrderMatchesSelect(const dvq::SelectExpr& sel,
                        const dvq::SelectExpr& order,
                        const SlotBinding& binding) {
  if (sel.agg != order.agg || sel.distinct != order.distinct) return false;
  if (sel.col.column == "*" || order.col.column == "*") {
    return sel.col.EqualsIgnoreCase(order.col);
  }
  if (order.col.table.empty()) {
    return strings::EqualsIgnoreCase(sel.col.column, order.col.column);
  }
  Result<std::size_t> ss = binding.Resolve(sel.col);
  Result<std::size_t> so = binding.Resolve(order.col);
  if (ss.ok() && so.ok()) return ss.value() == so.value();
  return sel.EqualsIgnoreCase(order);
}

/// Unifies ORDER BY with the select list, appending the order expression
/// as a hidden trailing computed column when it is not already selected.
/// Matching is semantic (see OrderMatchesSelect), not raw-text: the old
/// spelling comparison meant `SELECT parent.v ... ORDER BY v` failed to
/// unify and the hidden column re-resolved to the *first* same-named
/// slot, which after a join can belong to a different table entirely.
std::optional<std::size_t> UnifyOrderBy(const dvq::Query& q,
                                        const SlotBinding& binding,
                                        std::vector<dvq::SelectExpr>* computed) {
  if (!q.order_by.has_value()) return std::nullopt;
  for (std::size_t i = 0; i < computed->size(); ++i) {
    if (OrderMatchesSelect((*computed)[i], q.order_by->expr, binding)) {
      return i;
    }
  }
  computed->push_back(q.order_by->expr);
  return computed->size() - 1;
}

Result<Value> EvaluateScalarSubquery(const dvq::Query& sub,
                                     const storage::DatabaseData& db,
                                     const ExecOptions& options) {
  GRED_ASSIGN_OR_RETURN(ResultSet rs, Execute(sub, db, options));
  if (rs.rows.empty() || rs.rows[0].empty()) return Value::Null();
  return rs.rows[0][0];
}

/// Group-key hash shared by both engines: fold every key cell into the
/// seeded combiner (vector_ops.h), honoring the test-only hash override.
std::uint64_t HashKey(const std::vector<Value>& key, ValueHashFn fn) {
  std::uint64_t h = kGroupHashSeed;
  for (const Value& v : key) {
    h = CombineKeyHash(h, HashValueWith(fn, v));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Row-at-a-time engine (the executable reference semantics).
// ---------------------------------------------------------------------------

struct WorkingSet {
  SlotBinding binding;
  std::vector<std::vector<Value>> rows;
};

Result<WorkingSet> BuildJoinedRows(const dvq::Query& q,
                                   const storage::DatabaseData& db,
                                   const ExecOptions& options) {
  WorkingSet ws;
  const storage::DataTable* from = db.FindTable(q.from_table);
  if (from == nullptr) {
    return Status::ExecutionError("unknown table '" + q.from_table + "'");
  }
  ws.binding.AddTable(*from);
  ExecContext* guard = options.context;
  ws.rows.reserve(from->num_rows());
  for (std::size_t r = 0; r < from->num_rows(); ++r) {
    GRED_CHARGE(guard, ChargeTicks(1));
    GRED_CHARGE(guard, ChargeRows(1, from->num_columns()));
    ws.rows.push_back(from->Row(r));
  }
  for (const dvq::JoinClause& join : q.joins) {
    const storage::DataTable* right = db.FindTable(join.table);
    if (right == nullptr) {
      return Status::ExecutionError("unknown table '" + join.table + "'");
    }
    // Determine which side of the ON condition binds to the existing rows
    // and which to the newly joined table.
    SlotBinding right_binding;
    right_binding.AddTable(*right);
    auto left_in_existing = ws.binding.Resolve(join.left);
    dvq::ColumnRef probe = join.left;
    dvq::ColumnRef build = join.right;
    if (!left_in_existing.ok()) {
      std::swap(probe, build);
    }
    GRED_ASSIGN_OR_RETURN(std::size_t probe_slot, ws.binding.Resolve(probe));
    // The build key must resolve within the joined table only.
    dvq::ColumnRef build_local = build;
    GRED_ASSIGN_OR_RETURN(std::size_t build_slot,
                          right_binding.Resolve(build_local));

    const std::size_t merged_width =
        ws.binding.size() + right->num_columns();
    std::vector<std::vector<Value>> joined;
    if (options.join_strategy == JoinStrategy::kHashJoin) {
      // The reference engine charges per row by definition; the build
      // side's ticks are paid before the table is constructed, exactly
      // where the old inline build loop charged them.
      for (std::size_t r = 0; r < right->num_rows(); ++r) {
        GRED_CHARGE(guard, ChargeTicks(1));
      }
      JoinHashTable table(right->column(build_slot), options.value_hash);
      std::vector<std::uint32_t> matches;
      for (const auto& row : ws.rows) {
        GRED_CHARGE(guard, ChargeTicks(1));
        const Value& key = row[probe_slot];
        if (key.is_null()) continue;
        matches.clear();
        table.Probe(key, HashValueWith(options.value_hash, key), &matches);
        for (std::uint32_t m : matches) {
          GRED_CHARGE(guard, ChargeJoinRows(1));
          GRED_CHARGE(guard, ChargeRows(1, merged_width));
          std::vector<Value> merged = row;
          std::vector<Value> rrow = right->Row(m);
          merged.insert(merged.end(), rrow.begin(), rrow.end());
          joined.push_back(std::move(merged));
        }
      }
    } else {
      for (const auto& row : ws.rows) {
        const Value& key = row[probe_slot];
        if (key.is_null()) continue;
        for (std::size_t r = 0; r < right->num_rows(); ++r) {
          GRED_CHARGE(guard, ChargeTicks(1));
          if (right->at(r, build_slot) != key) continue;
          GRED_CHARGE(guard, ChargeJoinRows(1));
          GRED_CHARGE(guard, ChargeRows(1, merged_width));
          std::vector<Value> merged = row;
          std::vector<Value> rrow = right->Row(r);
          merged.insert(merged.end(), rrow.begin(), rrow.end());
          joined.push_back(std::move(merged));
        }
      }
    }
    ws.binding.AddTable(*right);
    ws.rows = std::move(joined);
  }
  return ws;
}

Result<bool> EvaluatePredicate(const dvq::Predicate& pred,
                               const SlotBinding& binding,
                               const std::vector<Value>& row,
                               const storage::DatabaseData& db,
                               const ExecOptions& options) {
  GRED_ASSIGN_OR_RETURN(std::size_t slot, binding.Resolve(pred.col));
  const Value& lhs = row[slot];
  switch (pred.op) {
    case dvq::CompareOp::kIsNull:
      return lhs.is_null();
    case dvq::CompareOp::kIsNotNull:
      return !lhs.is_null();
    case dvq::CompareOp::kLike:
    case dvq::CompareOp::kNotLike: {
      if (!pred.literal.has_value()) {
        return Status::ExecutionError("LIKE without a pattern");
      }
      bool match = LikeMatch(pred.literal->string_value, lhs.ToString());
      return pred.op == dvq::CompareOp::kLike ? match : !match;
    }
    case dvq::CompareOp::kIn:
    case dvq::CompareOp::kNotIn: {
      bool found = false;
      for (const dvq::Literal& lit : pred.in_list) {
        if (lhs == LiteralToValue(lit)) {
          found = true;
          break;
        }
      }
      return pred.op == dvq::CompareOp::kIn ? found : !found;
    }
    default:
      break;
  }
  Value rhs;
  if (pred.subquery != nullptr) {
    GRED_ASSIGN_OR_RETURN(rhs,
                          EvaluateScalarSubquery(*pred.subquery, db, options));
  } else if (pred.literal.has_value()) {
    rhs = LiteralToValue(*pred.literal);
  } else {
    return Status::ExecutionError("predicate missing right-hand side");
  }
  if (lhs.is_null() || rhs.is_null()) return false;  // SQL 3VL -> not true
  int cmp = lhs.Compare(rhs);
  switch (pred.op) {
    case dvq::CompareOp::kEq:
      return cmp == 0;
    case dvq::CompareOp::kNe:
      return cmp != 0;
    case dvq::CompareOp::kLt:
      return cmp < 0;
    case dvq::CompareOp::kLe:
      return cmp <= 0;
    case dvq::CompareOp::kGt:
      return cmp > 0;
    case dvq::CompareOp::kGe:
      return cmp >= 0;
    default:
      return Status::ExecutionError("unsupported comparison");
  }
}

/// Evaluates the condition with SQL precedence (AND binds tighter than
/// OR): the chain is an OR of AND-groups.
Result<bool> EvaluateCondition(const dvq::Condition& cond,
                               const SlotBinding& binding,
                               const std::vector<Value>& row,
                               const storage::DatabaseData& db,
                               const ExecOptions& options) {
  bool group_result = true;
  bool any_group_true = false;
  for (std::size_t i = 0; i < cond.predicates.size(); ++i) {
    GRED_ASSIGN_OR_RETURN(
        bool value,
        EvaluatePredicate(cond.predicates[i], binding, row, db, options));
    group_result = group_result && value;
    bool end_of_group = i + 1 >= cond.predicates.size() ||
                        cond.connectors[i] == dvq::LogicalOp::kOr;
    if (end_of_group) {
      any_group_true = any_group_true || group_result;
      group_result = true;
    }
  }
  return any_group_true;
}

Result<ResultSet> ExecuteRowEngine(const dvq::Query& q,
                                   const storage::DatabaseData& db,
                                   const ExecOptions& options) {
  ExecContext* guard = options.context;
  GRED_ASSIGN_OR_RETURN(WorkingSet ws, BuildJoinedRows(q, db, options));

  // Filter.
  if (q.where.has_value()) {
    std::vector<std::vector<Value>> kept;
    kept.reserve(ws.rows.size());
    for (auto& row : ws.rows) {
      GRED_CHARGE(guard, ChargeTicks(1));
      GRED_ASSIGN_OR_RETURN(
          bool pass, EvaluateCondition(*q.where, ws.binding, row, db, options));
      if (pass) kept.push_back(std::move(row));
    }
    ws.rows = std::move(kept);
  }

  // Binning rewrites the binned column in place.
  if (q.bin.has_value()) {
    GRED_ASSIGN_OR_RETURN(std::size_t bin_slot,
                          ws.binding.Resolve(q.bin->col));
    for (auto& row : ws.rows) {
      GRED_CHARGE(guard, ChargeTicks(1));
      row[bin_slot] = BinValue(row[bin_slot], q.bin->unit);
    }
  }

  // Resolve select expressions. The ORDER BY expression may reference an
  // aggregate (or column) not in the select list; compute it as a hidden
  // trailing column.
  std::vector<dvq::SelectExpr> computed = q.select;
  std::optional<std::size_t> order_slot =
      UnifyOrderBy(q, ws.binding, &computed);

  bool has_aggregate = false;
  for (const dvq::SelectExpr& e : computed) {
    if (e.agg != dvq::AggFunc::kNone) has_aggregate = true;
  }

  std::vector<std::vector<Value>> out_rows;
  if (has_aggregate || !q.group_by.empty()) {
    // Determine grouping keys: explicit GROUP BY, else all non-aggregated
    // select columns (Vega-Zero x-axis grouping).
    std::vector<dvq::ColumnRef> keys = q.group_by;
    if (keys.empty()) {
      for (const dvq::SelectExpr& e : q.select) {
        if (e.agg == dvq::AggFunc::kNone) keys.push_back(e.col);
      }
    }
    std::vector<std::size_t> key_slots;
    key_slots.reserve(keys.size());
    for (const dvq::ColumnRef& k : keys) {
      GRED_ASSIGN_OR_RETURN(std::size_t slot, ws.binding.Resolve(k));
      key_slots.push_back(slot);
    }
    std::vector<std::size_t> value_slots(computed.size(),
                                         static_cast<std::size_t>(-1));
    for (std::size_t i = 0; i < computed.size(); ++i) {
      if (computed[i].col.column == "*") continue;
      GRED_ASSIGN_OR_RETURN(std::size_t slot,
                            ws.binding.Resolve(computed[i].col));
      value_slots[i] = slot;
    }
    struct Group {
      std::vector<Value> key;
      std::vector<AggAccumulator> accs;
      std::vector<Value> first_row;
    };
    std::vector<Group> groups;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> index;
    for (const auto& row : ws.rows) {
      GRED_CHARGE(guard, ChargeTicks(1));
      std::vector<Value> key;
      key.reserve(key_slots.size());
      for (std::size_t slot : key_slots) key.push_back(row[slot]);
      std::uint64_t h = HashKey(key, options.value_hash);
      Group* group = nullptr;
      for (std::size_t gi : index[h]) {
        if (groups[gi].key == key) {
          group = &groups[gi];
          break;
        }
      }
      if (group == nullptr) {
        // A new group materializes its key, accumulators and first row:
        // high-cardinality group-bys are bounded by the row/memory
        // budgets, not just the tick deadline.
        GRED_CHARGE(guard, ChargeRows(1, key.size() + computed.size()));
        Group fresh;
        fresh.key = key;
        for (const dvq::SelectExpr& e : computed) {
          fresh.accs.emplace_back(e);
        }
        fresh.first_row = row;
        index[h].push_back(groups.size());
        groups.push_back(std::move(fresh));
        group = &groups.back();
      }
      for (std::size_t i = 0; i < computed.size(); ++i) {
        if (computed[i].agg == dvq::AggFunc::kNone) continue;
        const Value v = value_slots[i] == static_cast<std::size_t>(-1)
                            ? Value::Null()
                            : row[value_slots[i]];
        group->accs[i].Add(v);
      }
    }
    out_rows.reserve(groups.size());
    for (const Group& g : groups) {
      std::vector<Value> row;
      row.reserve(computed.size());
      for (std::size_t i = 0; i < computed.size(); ++i) {
        if (computed[i].agg == dvq::AggFunc::kNone) {
          row.push_back(g.first_row[value_slots[i]]);
        } else {
          row.push_back(g.accs[i].Finish());
        }
      }
      out_rows.push_back(std::move(row));
    }
  } else {
    // Pure projection.
    std::vector<std::size_t> slots;
    slots.reserve(computed.size());
    for (const dvq::SelectExpr& e : computed) {
      GRED_ASSIGN_OR_RETURN(std::size_t slot, ws.binding.Resolve(e.col));
      slots.push_back(slot);
    }
    out_rows.reserve(ws.rows.size());
    for (const auto& row : ws.rows) {
      GRED_CHARGE(guard, ChargeTicks(1));
      GRED_CHARGE(guard, ChargeRows(1, slots.size()));
      std::vector<Value> out;
      out.reserve(slots.size());
      for (std::size_t slot : slots) out.push_back(row[slot]);
      out_rows.push_back(std::move(out));
    }
  }

  // Order. The comparator cannot propagate a Status, so the sort's work
  // is charged up front (stable_sort is O(n log n); one tick per row is
  // the deterministic lower bound and the inputs were already paid for
  // row-by-row above).
  if (q.order_by.has_value()) {
    GRED_CHARGE(guard, ChargeTicks(out_rows.size()));
    const std::size_t slot = *order_slot;
    const bool desc = q.order_by->descending;
    std::stable_sort(out_rows.begin(), out_rows.end(),
                     [slot, desc](const auto& a, const auto& b) {
                       int cmp = a[slot].Compare(b[slot]);
                       return desc ? cmp > 0 : cmp < 0;
                     });
  }

  // Limit, then strip hidden order column.
  if (q.limit.has_value() && *q.limit >= 0 &&
      out_rows.size() > static_cast<std::size_t>(*q.limit)) {
    out_rows.resize(static_cast<std::size_t>(*q.limit));
  }
  ResultSet rs;
  for (const dvq::SelectExpr& e : q.select) {
    rs.column_names.push_back(e.ToString());
  }
  const std::size_t visible = q.select.size();
  for (auto& row : out_rows) {
    row.resize(visible);
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

// ---------------------------------------------------------------------------
// Vectorized columnar engine.
//
// Guard parity: every operator charges the same per-operator totals as
// the reference engine, batched at kExecChunkRows granularity, so a
// query trips (or doesn't) identically in both engines. The one
// documented divergence: scalar subqueries are hoisted and evaluated
// once here but per outer row there, so with a subquery the columnar
// engine charges at most as much — if it trips, the reference engine
// trips too.
// ---------------------------------------------------------------------------

struct ColumnarWorkingSet {
  SlotBinding binding;
  ColumnBatch batch;
};

Result<ColumnarWorkingSet> BuildJoinedBatch(const dvq::Query& q,
                                            const storage::DatabaseData& db,
                                            const ExecOptions& options) {
  ColumnarWorkingSet ws;
  const storage::DataTable* from = db.FindTable(q.from_table);
  if (from == nullptr) {
    return Status::ExecutionError("unknown table '" + q.from_table + "'");
  }
  ws.binding.AddTable(*from);
  ws.batch.AddScanTable(*from);
  ExecContext* guard = options.context;
  // Scan charges: the accounting model prices the logical working set
  // (DESIGN.md §8), so the scan pays for its rows even though the
  // columnar engine only borrows them.
  for (std::size_t done = 0; done < from->num_rows();) {
    const std::size_t n =
        std::min(from->num_rows() - done, kExecChunkRows);
    GRED_CHARGE(guard, ChargeTicks(n));
    GRED_CHARGE(guard, ChargeRows(n, from->num_columns()));
    done += n;
  }
  for (const dvq::JoinClause& join : q.joins) {
    const storage::DataTable* right = db.FindTable(join.table);
    if (right == nullptr) {
      return Status::ExecutionError("unknown table '" + join.table + "'");
    }
    SlotBinding right_binding;
    right_binding.AddTable(*right);
    auto left_in_existing = ws.binding.Resolve(join.left);
    dvq::ColumnRef probe = join.left;
    dvq::ColumnRef build = join.right;
    if (!left_in_existing.ok()) {
      std::swap(probe, build);
    }
    GRED_ASSIGN_OR_RETURN(std::size_t probe_slot, ws.binding.Resolve(probe));
    GRED_ASSIGN_OR_RETURN(std::size_t build_slot,
                          right_binding.Resolve(build));

    const std::size_t merged_width =
        ws.binding.size() + right->num_columns();
    const std::size_t n_left = ws.batch.num_rows();
    const ColumnView probe_view = ws.batch.View(probe_slot);
    std::vector<std::uint32_t> left_index;
    std::vector<std::uint32_t> right_rows;
    if (options.join_strategy == JoinStrategy::kHashJoin) {
      for (std::size_t done = 0; done < right->num_rows();) {
        const std::size_t n =
            std::min(right->num_rows() - done, kExecChunkRows);
        GRED_CHARGE(guard, ChargeTicks(n));
        done += n;
      }
      JoinHashTable table(right->column(build_slot), options.value_hash);
      std::vector<std::uint32_t> matches;
      for (std::size_t begin = 0; begin < n_left; begin += kExecChunkRows) {
        const std::size_t end = std::min(n_left, begin + kExecChunkRows);
        GRED_CHARGE(guard, ChargeTicks(end - begin));
        std::size_t chunk_matches = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Value& key = probe_view.at(i);
          if (key.is_null()) continue;
          matches.clear();
          table.Probe(key, HashValueWith(options.value_hash, key),
                      &matches);
          for (std::uint32_t m : matches) {
            left_index.push_back(static_cast<std::uint32_t>(i));
            right_rows.push_back(m);
          }
          chunk_matches += matches.size();
        }
        GRED_CHARGE(guard, ChargeJoinRows(chunk_matches));
        GRED_CHARGE(guard, ChargeRows(chunk_matches, merged_width));
      }
    } else {
      const std::vector<Value>& build_col = right->column(build_slot);
      for (std::size_t begin = 0; begin < n_left; begin += kExecChunkRows) {
        const std::size_t end = std::min(n_left, begin + kExecChunkRows);
        std::size_t chunk_matches = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Value& key = probe_view.at(i);
          if (key.is_null()) continue;
          // The reference engine ticks once per build row scanned for
          // every non-NULL probe key.
          GRED_CHARGE(guard, ChargeTicks(build_col.size()));
          for (std::size_t r = 0; r < build_col.size(); ++r) {
            if (build_col[r] != key) continue;
            left_index.push_back(static_cast<std::uint32_t>(i));
            right_rows.push_back(static_cast<std::uint32_t>(r));
            ++chunk_matches;
          }
        }
        GRED_CHARGE(guard, ChargeJoinRows(chunk_matches));
        GRED_CHARGE(guard, ChargeRows(chunk_matches, merged_width));
      }
    }
    ws.batch.ApplyJoin(left_index, *right, std::move(right_rows));
    ws.binding.AddTable(*right);
  }
  return ws;
}

/// Resolves and constant-folds the WHERE predicates. Called only when
/// the working set is non-empty: the reference engine binds WHERE slots
/// and evaluates subqueries lazily per row, so on empty input it reports
/// no error — and neither do we. Scalar subqueries are evaluated once
/// here (hoisted) instead of per row.
Result<std::vector<PreparedPredicate>> PreparePredicates(
    const dvq::Condition& cond, const ColumnBatch& batch,
    const SlotBinding& binding, const storage::DatabaseData& db,
    const ExecOptions& options) {
  std::vector<PreparedPredicate> out;
  out.reserve(cond.predicates.size());
  for (const dvq::Predicate& pred : cond.predicates) {
    GRED_ASSIGN_OR_RETURN(std::size_t slot, binding.Resolve(pred.col));
    PreparedPredicate p;
    p.slot = slot;
    p.op = pred.op;
    switch (pred.op) {
      case dvq::CompareOp::kIsNull:
      case dvq::CompareOp::kIsNotNull:
        break;
      case dvq::CompareOp::kLike:
      case dvq::CompareOp::kNotLike:
        if (!pred.literal.has_value()) {
          return Status::ExecutionError("LIKE without a pattern");
        }
        p.pattern = pred.literal->string_value;
        break;
      case dvq::CompareOp::kIn:
      case dvq::CompareOp::kNotIn:
        p.in_values.reserve(pred.in_list.size());
        for (const dvq::Literal& lit : pred.in_list) {
          p.in_values.push_back(LiteralToValue(lit));
        }
        break;
      default: {
        if (pred.subquery != nullptr) {
          GRED_ASSIGN_OR_RETURN(
              p.rhs, EvaluateScalarSubquery(*pred.subquery, db, options));
        } else if (pred.literal.has_value()) {
          p.rhs = LiteralToValue(*pred.literal);
        } else {
          return Status::ExecutionError("predicate missing right-hand side");
        }
        p.dense_int_fast = p.rhs.is_int() && batch.SlotIsDenseInt(slot);
        break;
      }
    }
    out.push_back(std::move(p));
  }
  return out;
}

Result<ResultSet> ExecuteColumnar(const dvq::Query& q,
                                  const storage::DatabaseData& db,
                                  const ExecOptions& options) {
  ExecContext* guard = options.context;
  const ValueHashFn vhash = options.value_hash;
  GRED_ASSIGN_OR_RETURN(ColumnarWorkingSet ws,
                        BuildJoinedBatch(q, db, options));
  SlotBinding& binding = ws.binding;
  ColumnBatch& batch = ws.batch;

  // Filter: evaluate each predicate into a 0/1 bitmap per chunk, fold
  // the OR-of-AND-groups structure with byte-wise AND/OR, then compact
  // the batch once.
  if (q.where.has_value() && batch.num_rows() > 0) {
    GRED_ASSIGN_OR_RETURN(
        std::vector<PreparedPredicate> preds,
        PreparePredicates(*q.where, batch, binding, db, options));
    const std::size_t n = batch.num_rows();
    std::vector<ColumnView> views;
    views.reserve(preds.size());
    for (const PreparedPredicate& p : preds) views.push_back(batch.View(p.slot));
    std::vector<std::uint8_t> keep(n, 0);
    std::vector<std::uint8_t> acc_or(kExecChunkRows);
    std::vector<std::uint8_t> acc_and(kExecChunkRows);
    std::vector<std::uint8_t> tmp(kExecChunkRows);
    for (std::size_t begin = 0; begin < n; begin += kExecChunkRows) {
      const std::size_t end = std::min(n, begin + kExecChunkRows);
      const std::size_t len = end - begin;
      GRED_CHARGE(guard, ChargeTicks(len));
      std::fill_n(acc_or.begin(), len, std::uint8_t{0});
      std::fill_n(acc_and.begin(), len, std::uint8_t{1});
      for (std::size_t i = 0; i < preds.size(); ++i) {
        EvalPredicateRange(views[i], preds[i], begin, end, tmp.data());
        AndInto(acc_and.data(), tmp.data(), len);
        const bool end_of_group = i + 1 >= preds.size() ||
                                  q.where->connectors[i] == dvq::LogicalOp::kOr;
        if (end_of_group) {
          OrInto(acc_or.data(), acc_and.data(), len);
          std::fill_n(acc_and.begin(), len, std::uint8_t{1});
        }
      }
      std::copy_n(acc_or.begin(), len, keep.begin() + static_cast<std::ptrdiff_t>(begin));
    }
    batch.Filter(keep);
  }

  // Binning rewrites the binned column as an owned dense vector.
  if (q.bin.has_value()) {
    GRED_ASSIGN_OR_RETURN(std::size_t bin_slot,
                          binding.Resolve(q.bin->col));
    const std::size_t n = batch.num_rows();
    const ColumnView view = batch.View(bin_slot);
    std::vector<Value> binned(n);
    for (std::size_t begin = 0; begin < n; begin += kExecChunkRows) {
      const std::size_t end = std::min(n, begin + kExecChunkRows);
      GRED_CHARGE(guard, ChargeTicks(end - begin));
      for (std::size_t i = begin; i < end; ++i) {
        binned[i] = BinValue(view.at(i), q.bin->unit);
      }
    }
    batch.ReplaceWithOwned(bin_slot, std::move(binned));
  }

  std::vector<dvq::SelectExpr> computed = q.select;
  std::optional<std::size_t> order_slot = UnifyOrderBy(q, binding, &computed);

  bool has_aggregate = false;
  for (const dvq::SelectExpr& e : computed) {
    if (e.agg != dvq::AggFunc::kNone) has_aggregate = true;
  }

  // Computed output, column-major; cells are copied out of the batch
  // exactly once, here.
  std::vector<std::vector<Value>> out_cols(computed.size());
  std::size_t out_len = 0;
  const auto npos = static_cast<std::size_t>(-1);
  if (has_aggregate || !q.group_by.empty()) {
    std::vector<dvq::ColumnRef> keys = q.group_by;
    if (keys.empty()) {
      for (const dvq::SelectExpr& e : q.select) {
        if (e.agg == dvq::AggFunc::kNone) keys.push_back(e.col);
      }
    }
    std::vector<std::size_t> key_slots;
    key_slots.reserve(keys.size());
    for (const dvq::ColumnRef& k : keys) {
      GRED_ASSIGN_OR_RETURN(std::size_t slot, binding.Resolve(k));
      key_slots.push_back(slot);
    }
    std::vector<std::size_t> value_slots(computed.size(), npos);
    for (std::size_t i = 0; i < computed.size(); ++i) {
      if (computed[i].col.column == "*") continue;
      GRED_ASSIGN_OR_RETURN(std::size_t slot,
                            binding.Resolve(computed[i].col));
      value_slots[i] = slot;
    }
    std::vector<ColumnView> key_views;
    key_views.reserve(key_slots.size());
    for (std::size_t slot : key_slots) key_views.push_back(batch.View(slot));
    std::vector<ColumnView> value_views(computed.size());
    for (std::size_t i = 0; i < computed.size(); ++i) {
      if (value_slots[i] != npos) value_views[i] = batch.View(value_slots[i]);
    }

    const std::size_t n = batch.num_rows();
    GroupIndex index;
    std::vector<std::vector<Value>> group_keys;
    std::vector<std::vector<AggAccumulator>> group_accs;
    std::vector<std::uint32_t> group_first_row;
    for (std::size_t begin = 0; begin < n; begin += kExecChunkRows) {
      const std::size_t end = std::min(n, begin + kExecChunkRows);
      GRED_CHARGE(guard, ChargeTicks(end - begin));
      std::uint64_t new_groups = 0;
      for (std::size_t i = begin; i < end; ++i) {
        std::uint64_t h = kGroupHashSeed;
        for (const ColumnView& kv : key_views) {
          h = CombineKeyHash(h, HashValueWith(vhash, kv.at(i)));
        }
        const auto [gid, inserted] =
            index.FindOrInsert(h, [&](std::uint32_t g) {
              const std::vector<Value>& gk = group_keys[g];
              for (std::size_t k = 0; k < key_views.size(); ++k) {
                if (gk[k] != key_views[k].at(i)) return false;
              }
              return true;
            });
        if (inserted) {
          ++new_groups;
          std::vector<Value> key;
          key.reserve(key_views.size());
          for (const ColumnView& kv : key_views) key.push_back(kv.at(i));
          group_keys.push_back(std::move(key));
          std::vector<AggAccumulator> accs;
          accs.reserve(computed.size());
          for (const dvq::SelectExpr& e : computed) accs.emplace_back(e);
          group_accs.push_back(std::move(accs));
          group_first_row.push_back(static_cast<std::uint32_t>(i));
        }
        for (std::size_t c = 0; c < computed.size(); ++c) {
          if (computed[c].agg == dvq::AggFunc::kNone) continue;
          const Value v = value_slots[c] == npos ? Value::Null()
                                                 : value_views[c].at(i);
          group_accs[gid][c].Add(v);
        }
      }
      // New groups materialize their key + accumulator row, same price
      // per group as the reference engine.
      GRED_CHARGE(guard,
                  ChargeRows(new_groups, key_slots.size() + computed.size()));
    }
    out_len = group_keys.size();
    for (std::size_t c = 0; c < computed.size(); ++c) {
      out_cols[c].reserve(out_len);
      for (std::size_t g = 0; g < out_len; ++g) {
        if (computed[c].agg == dvq::AggFunc::kNone) {
          out_cols[c].push_back(value_slots[c] == npos
                                    ? Value::Null()
                                    : value_views[c].at(group_first_row[g]));
        } else {
          out_cols[c].push_back(group_accs[g][c].Finish());
        }
      }
    }
  } else {
    // Pure projection: gather only the selected (plus hidden ORDER BY)
    // columns out of the batch.
    std::vector<std::size_t> slots;
    slots.reserve(computed.size());
    for (const dvq::SelectExpr& e : computed) {
      GRED_ASSIGN_OR_RETURN(std::size_t slot, binding.Resolve(e.col));
      slots.push_back(slot);
    }
    std::vector<ColumnView> views;
    views.reserve(slots.size());
    for (std::size_t slot : slots) views.push_back(batch.View(slot));
    const std::size_t n = batch.num_rows();
    for (std::size_t c = 0; c < slots.size(); ++c) out_cols[c].reserve(n);
    for (std::size_t begin = 0; begin < n; begin += kExecChunkRows) {
      const std::size_t end = std::min(n, begin + kExecChunkRows);
      const std::size_t len = end - begin;
      GRED_CHARGE(guard, ChargeTicks(len));
      GRED_CHARGE(guard, ChargeRows(len, slots.size()));
      for (std::size_t c = 0; c < slots.size(); ++c) {
        for (std::size_t i = begin; i < end; ++i) {
          out_cols[c].push_back(views[c].at(i));
        }
      }
    }
    out_len = n;
  }

  // Order: a stable permutation over the (possibly hidden) key column;
  // rows are never physically reordered.
  std::vector<std::uint32_t> perm;
  if (q.order_by.has_value()) {
    GRED_CHARGE(guard, ChargeTicks(out_len));
    ColumnView key_view;
    key_view.values = out_cols[*order_slot].data();
    perm = StableSortPermutation(out_len, key_view, q.order_by->descending);
  }

  // Limit, then materialize the visible columns through the permutation
  // — the single point where result cells are copied row-major.
  std::size_t visible_rows = out_len;
  if (q.limit.has_value() && *q.limit >= 0 &&
      visible_rows > static_cast<std::size_t>(*q.limit)) {
    visible_rows = static_cast<std::size_t>(*q.limit);
  }
  ResultSet rs;
  for (const dvq::SelectExpr& e : q.select) {
    rs.column_names.push_back(e.ToString());
  }
  const std::size_t visible_cols = q.select.size();
  rs.rows.reserve(visible_rows);
  for (std::size_t r = 0; r < visible_rows; ++r) {
    const std::size_t src = perm.empty() ? r : perm[r];
    std::vector<Value> row;
    row.reserve(visible_cols);
    for (std::size_t c = 0; c < visible_cols; ++c) {
      row.push_back(out_cols[c][src]);
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

}  // namespace

std::string ResultSet::ToString(std::size_t max_rows) const {
  std::string out;
  out += strings::Join(column_names, " | ") + "\n";
  for (std::size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    std::vector<std::string> cells;
    cells.reserve(rows[r].size());
    for (const Value& v : rows[r]) cells.push_back(v.ToString());
    out += strings::Join(cells, " | ") + "\n";
  }
  if (rows.size() > max_rows) {
    out += strings::Format("... (%zu more rows)\n", rows.size() - max_rows);
  }
  return out;
}

Result<ResultSet> Execute(const dvq::Query& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options) {
  const dvq::Query q = dvq::ResolveAliases(query);
  if (options.engine == Engine::kRowAtATime) {
    return ExecuteRowEngine(q, db, options);
  }
  return ExecuteColumnar(q, db, options);
}

Result<ResultSet> Execute(const dvq::DVQ& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options) {
  return Execute(query.query, db, options);
}

#undef GRED_CHARGE

}  // namespace gred::exec
