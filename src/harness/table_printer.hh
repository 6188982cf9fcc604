/**
 * @file
 * Aligned text tables for the bench harness output (the rows/series
 * the paper's tables and figures report).
 */

#ifndef INPG_HARNESS_TABLE_PRINTER_HH
#define INPG_HARNESS_TABLE_PRINTER_HH

#include <string>
#include <vector>

namespace inpg {

/** Simple column-aligned table with a title and header row. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::string table_title = "");

    /** Set the column headers (defines the column count). */
    void header(std::vector<std::string> cells);

    /** Append one row (padded/truncated to the column count). */
    void row(std::vector<std::string> cells);

    /** Insert a horizontal separator. */
    void separator();

    /** Render with per-column widths fitted to the content. */
    std::string render() const;

    /** Render as CSV (header + data rows; separators skipped). */
    std::string renderCsv() const;

  private:
    std::string title;
    std::vector<std::vector<std::string>> rows;
    std::vector<bool> isSeparator;
    std::size_t columns = 0;
};

} // namespace inpg

#endif // INPG_HARNESS_TABLE_PRINTER_HH
