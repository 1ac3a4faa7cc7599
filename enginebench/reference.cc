#include "reference.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "engine/query_executor.h"

namespace enginebench {

using namespace x100;

namespace {

Value CellValue(const Vector& v, int i) {
  if (v.IsNull(i)) return Value::Null(v.type());
  switch (v.type()) {
    case TypeId::kBool:
      return Value::Bool(v.Data<uint8_t>()[i] != 0);
    case TypeId::kI8:
      return Value::I8(v.Data<int8_t>()[i]);
    case TypeId::kI16:
      return Value::I16(v.Data<int16_t>()[i]);
    case TypeId::kI32:
      return Value::I32(v.Data<int32_t>()[i]);
    case TypeId::kDate:
      return Value::Date(v.Data<int32_t>()[i]);
    case TypeId::kI64:
      return Value::I64(v.Data<int64_t>()[i]);
    case TypeId::kF64:
      return Value::F64(v.Data<double>()[i]);
    case TypeId::kStr:
      return Value::Str(v.Data<StrRef>()[i].ToString());
  }
  return Value::Null(v.type());
}

bool IsNumeric(const Value& v) { return v.type() != TypeId::kStr; }

/// Total order over a row's cells: numbers by value, strings bytewise.
bool RowLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t c = 0; c < a.size() && c < b.size(); c++) {
    if (IsNumeric(a[c]) && IsNumeric(b[c])) {
      const double x = a[c].AsF64(), y = b[c].AsF64();
      if (x != y) return x < y;
    } else if (a[c].ToString() != b[c].ToString()) {
      return a[c].ToString() < b[c].ToString();
    }
  }
  return a.size() < b.size();
}

bool SameCell(const Value& got, const Value& want) {
  if (got.is_null() || want.is_null()) return got.is_null() == want.is_null();
  if (got.type() == TypeId::kF64 || want.type() == TypeId::kF64) {
    const double x = got.AsF64(), y = want.AsF64();
    return std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(y));
  }
  if (IsNumeric(got) != IsNumeric(want)) return false;
  if (!IsNumeric(got)) return got.AsStr() == want.AsStr();
  return got.AsI64() == want.AsI64();
}

struct Q1Group {
  double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
  int64_t n = 0;
};

struct PrioGroup {
  double revenue = 0;
  int64_t items = 0;
};

/// Calls `fn` once per row of `table` with the values of `columns`.
Status ForEachRow(Database* db, const std::string& table,
                  const std::vector<std::string>& columns,
                  const std::function<void(const std::vector<Value>&)>& fn) {
  ExecContext ctx;
  ctx.scheduler = db->scheduler();
  QueryExecutor executor(db);
  OperatorPtr scan;
  X100_ASSIGN_OR_RETURN(scan, executor.Build(ScanNode(table, columns), &ctx));
  X100_RETURN_IF_ERROR(scan->Open(&ctx));
  std::vector<Value> row(columns.size());
  Status status;
  while (true) {
    auto batch = scan->Next();
    if (!batch.ok()) {
      status = batch.status();
      break;
    }
    const Batch* b = *batch;
    if (b == nullptr) break;
    const sel_t* sel = b->sel();
    for (int j = 0; j < b->ActiveRows(); j++) {
      const int i = sel ? sel[j] : j;
      for (int c = 0; c < b->num_columns(); c++) {
        row[c] = CellValue(*b->column(c), i);
      }
      fn(row);
    }
  }
  scan->Close();
  return status;
}

}  // namespace

Result<Reference> ComputeReference(Database* db) {
  const int32_t q1_cut = MakeDate(1998, 12, 1) - kQ1DeltaDays;
  const int32_t q3_cut = MakeDate(1995, 3, 15);
  const int32_t q6_lo = MakeDate(kQ6Year, 1, 1);
  const int32_t q6_hi = MakeDate(kQ6Year + 1, 1, 1);

  std::unordered_set<int64_t> segment_customers;
  X100_RETURN_IF_ERROR(ForEachRow(
      db, "customer", {"c_custkey", "c_mktsegment"},
      [&](const std::vector<Value>& r) {
        if (r[1].AsStr() == kQ3Segment) segment_customers.insert(r[0].AsI64());
      }));

  struct OrderInfo {
    std::string priority;
    int32_t date;
    int32_t shippriority;
    bool q3;
  };
  std::unordered_map<int64_t, OrderInfo> orders;
  X100_RETURN_IF_ERROR(ForEachRow(
      db, "orders",
      {"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority",
       "o_orderpriority"},
      [&](const std::vector<Value>& r) {
        const int32_t date = static_cast<int32_t>(r[2].AsI64());
        orders[r[0].AsI64()] = {
            r[4].AsStr(), date, static_cast<int32_t>(r[3].AsI64()),
            date < q3_cut && segment_customers.count(r[1].AsI64()) > 0};
      }));

  std::map<std::pair<std::string, std::string>, Q1Group> q1;
  std::unordered_map<int64_t, double> q3_revenue;
  std::map<std::string, PrioGroup> by_priority;
  double q6_revenue = 0;
  int64_t lineitems = 0;
  X100_RETURN_IF_ERROR(ForEachRow(
      db, "lineitem",
      {"l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax",
       "l_returnflag", "l_linestatus", "l_shipdate"},
      [&](const std::vector<Value>& r) {
        const int64_t okey = r[0].AsI64();
        const double qty = r[1].AsF64(), price = r[2].AsF64();
        const double disc = r[3].AsF64(), tax = r[4].AsF64();
        const int32_t ship = static_cast<int32_t>(r[7].AsI64());
        lineitems++;
        if (ship <= q1_cut) {
          Q1Group& g = q1[{r[5].AsStr(), r[6].AsStr()}];
          g.qty += qty;
          g.base += price;
          g.disc_price += price * (1.0 - disc);
          g.charge += price * (1.0 - disc) * (1.0 + tax);
          g.disc += disc;
          g.n++;
        }
        if (ship >= q6_lo && ship < q6_hi && disc >= 0.05 && disc <= 0.07 &&
            qty < 24.0) {
          q6_revenue += price * disc;
        }
        auto o = orders.find(okey);
        if (o == orders.end()) return;
        PrioGroup& pg = by_priority[o->second.priority];
        pg.revenue += price;
        pg.items++;
        if (o->second.q3 && ship > q3_cut) {
          q3_revenue[okey] += price * (1.0 - disc);
        }
      }));

  Reference ref;
  for (const auto& [key, g] : q1) {
    ref.q1.push_back({Value::Str(key.first), Value::Str(key.second),
                      Value::F64(g.qty), Value::F64(g.base),
                      Value::F64(g.disc_price), Value::F64(g.charge),
                      Value::F64(g.qty / g.n), Value::F64(g.base / g.n),
                      Value::F64(g.disc / g.n), Value::I64(g.n)});
  }
  for (const auto& [okey, revenue] : q3_revenue) {
    const OrderInfo& o = orders.at(okey);
    ref.q3.push_back({Value::I64(okey), Value::Date(o.date),
                      Value::I32(o.shippriority), Value::F64(revenue)});
  }
  std::sort(ref.q3.begin(), ref.q3.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              if (a[3].AsF64() != b[3].AsF64()) {
                return a[3].AsF64() > b[3].AsF64();
              }
              return a[1].AsI64() < b[1].AsI64();
            });
  if (ref.q3.size() > 10) ref.q3.resize(10);
  ref.q6.push_back({Value::F64(q6_revenue)});
  for (const auto& [prio, g] : by_priority) {
    ref.joinagg.push_back(
        {Value::Str(prio), Value::F64(g.revenue), Value::I64(g.items)});
  }
  ref.count.push_back({Value::I64(lineitems)});
  return ref;
}

namespace {

bool SameRowsInOrder(const Rows& rows, const Rows& expected,
                     std::string* why) {
  if (rows.size() != expected.size()) {
    *why = "got " + std::to_string(rows.size()) + " rows, want " +
           std::to_string(expected.size());
    return false;
  }
  for (size_t i = 0; i < rows.size(); i++) {
    if (rows[i].size() != expected[i].size()) {
      *why = "row " + std::to_string(i) + " has " +
             std::to_string(rows[i].size()) + " columns, want " +
             std::to_string(expected[i].size());
      return false;
    }
    for (size_t c = 0; c < rows[i].size(); c++) {
      if (!SameCell(rows[i][c], expected[i][c])) {
        *why = "row " + std::to_string(i) + " column " + std::to_string(c) +
               ": got " + rows[i][c].ToString() + ", want " +
               expected[i][c].ToString();
        return false;
      }
    }
  }
  return true;
}

/// Sorts each run of adjacent rows whose `tie_col` values tie within the
/// tolerance by all columns, so tied rows compare in one canonical order.
void CanonicalizeTies(Rows* rows, int tie_col) {
  size_t i = 0;
  while (i < rows->size()) {
    size_t j = i + 1;
    while (j < rows->size() &&
           SameCell((*rows)[j][tie_col], (*rows)[i][tie_col])) {
      j++;
    }
    std::sort(rows->begin() + i, rows->begin() + j, RowLess);
    i = j;
  }
}

}  // namespace

bool SameRows(const QueryResult& got, const Rows& want,
              bool sort_before_compare, std::string* why) {
  Rows rows = got.rows;
  Rows expected = want;
  if (sort_before_compare) {
    std::sort(rows.begin(), rows.end(), RowLess);
    std::sort(expected.begin(), expected.end(), RowLess);
  }
  return SameRowsInOrder(rows, expected, why);
}

bool SameRowsUpToTies(const QueryResult& got, const Rows& want, int tie_col,
                      std::string* why) {
  for (const Rows* rs : {&got.rows, &want}) {
    for (const auto& r : *rs) {
      if (static_cast<int>(r.size()) <= tie_col) {
        *why = "a row has no column " + std::to_string(tie_col);
        return false;
      }
    }
  }
  Rows rows = got.rows;
  Rows expected = want;
  CanonicalizeTies(&rows, tie_col);
  CanonicalizeTies(&expected, tie_col);
  return SameRowsInOrder(rows, expected, why);
}

}  // namespace enginebench
