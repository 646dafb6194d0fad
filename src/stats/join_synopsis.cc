#include "stats/join_synopsis.h"

#include <map>

#include "common/logging.h"
#include "stats/sampler.h"

namespace capd {

std::unique_ptr<Table> JoinDimensions(std::string name, const Table& fact,
                                      const std::vector<const Table*>& dims,
                                      const std::vector<ForeignKey>& edges) {
  CAPD_CHECK_EQ(dims.size(), edges.size());

  // Result schema: all fact columns, then each dimension's non-key columns.
  std::vector<Column> cols = fact.schema().columns();
  std::vector<size_t> fk_pos(dims.size());
  std::vector<size_t> key_pos(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    CAPD_CHECK_EQ(edges[d].dim_table, dims[d]->name());
    fk_pos[d] = fact.schema().ColumnIndex(edges[d].fk_column);
    key_pos[d] = dims[d]->schema().ColumnIndex(edges[d].key_column);
    for (const Column& c : dims[d]->schema().columns()) {
      if (c.name == edges[d].key_column) continue;
      cols.push_back(c);
    }
  }
  Schema joined_schema(std::move(cols));
  // Column-name uniqueness check (ColumnIndex aborts on duplicates only when
  // probed; verify eagerly for a clear error).
  for (size_t i = 0; i < joined_schema.num_columns(); ++i) {
    for (size_t j = i + 1; j < joined_schema.num_columns(); ++j) {
      CAPD_CHECK(joined_schema.column(i).name != joined_schema.column(j).name)
          << "duplicate column in join " << name << ": "
          << joined_schema.column(i).name;
    }
  }

  // Dimension rows are kept by value: ScanRows hands out a scratch row.
  std::vector<std::map<std::string, Row>> dim_maps(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    dims[d]->ScanRows([&](uint64_t, const Row& row) {
      dim_maps[d][row[key_pos[d]].ToString()] = row;
    });
  }

  auto joined =
      std::make_unique<Table>(std::move(name), std::move(joined_schema));
  Row out;
  fact.ScanRows([&](uint64_t, const Row& frow) {
    out = frow;
    for (size_t d = 0; d < dims.size(); ++d) {
      const auto it = dim_maps[d].find(frow[fk_pos[d]].ToString());
      if (it == dim_maps[d].end()) return;  // dangling FK: drop the row
      const Row& drow = it->second;
      for (size_t c = 0; c < drow.size(); ++c) {
        if (c != key_pos[d]) out.push_back(drow[c]);
      }
    }
    joined->AddRow(out);
  });
  return joined;
}

std::unique_ptr<Table> BuildJoinSynopsis(
    const Table& fact, const std::vector<const Table*>& dims,
    const std::vector<ForeignKey>& edges, double f, Random* rng) {
  for (const ForeignKey& edge : edges) {
    CAPD_CHECK_EQ(edge.fact_table, fact.name());
  }
  const std::unique_ptr<Table> fact_sample =
      CreateUniformSample(fact, f, /*min_rows=*/50, rng);
  return JoinDimensions(fact.name() + "_synopsis", *fact_sample, dims, edges);
}

}  // namespace capd
