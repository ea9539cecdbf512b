// Package dataset implements the in-memory columnar dataset engine that
// underpins ViewSeeker: typed columns, schemas with dimension/measure
// roles, tables with row- and column-oriented access, CSV import/export,
// and the seeded generators for the SYN, DIAB and NBA workloads used
// throughout the paper's evaluation.
//
// # Contracts
//
// Decode-once columns (DESIGN.md §9): Column.NumericView returns the
// column as a flat []float64 plus a null bitmap (bit i of word i/64).
// Float columns alias their backing slice — callers must not mutate the
// view — while int and bool columns decode into a cache that decodes only
// the rows appended since. The bitmap is the store of record for NULLs;
// IsNull is two shifts and a bounds check.
//
// Shared versions (DESIGN.md §13): Table.WithAppended returns a version
// that shares its parent's arrays and writes only the appended rows.
// Every shared array is a Backing with one high-water mark; Extend is the
// one rule by which a version claims an array's tail or copies, and the
// view layer's bin indexes grow through it too.
//
// Gathers: Column.Gather copies a column's cells at a list of rows into a
// new column of the same definition, NULL bits included (NULL cells hold
// the kind's zero value, as Append stores them); Table.Subset and the SQL
// executor's pass-through projections are built from it.
//
// CSV loading (DESIGN.md §17): ReadCSV, ReadCSVFile and
// ReadCSVWithSchema share one streaming loader. A .schema.json sidecar is
// read before the data and its kinds define the columns it names; only
// the other columns are inferred from their first non-empty cell. Cells
// are parsed straight into the typed slices, in column-parallel blocks,
// with a fallback to coerceCell + Column.Append whenever the direct parse
// would differ, so tables, coercions and errors (and their order) are
// those of the boxed row-at-a-time loader the tests keep as an oracle.
// The one difference: a column the sidecar calls float accepts a whole
// first cell, so a float column that writeCSV wrote as "2" round-trips.
//
// Bit-identity: the numeric view yields exactly the values the
// row-at-a-time accessors yield, in the same row order, so scan kernels
// built on either surface agree bit for bit. Generators are seeded and
// platform-independent: the same (config, seed) always produces the same
// table, which content-addressed caching and tracked benchmarks rely on.
package dataset
