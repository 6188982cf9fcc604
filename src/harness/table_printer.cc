#include "harness/table_printer.hh"

#include <algorithm>
#include <sstream>

#include "common/strutil.hh"

namespace inpg {

TablePrinter::TablePrinter(std::string table_title)
    : title(std::move(table_title))
{}

void
TablePrinter::header(std::vector<std::string> cells)
{
    columns = std::max(columns, cells.size());
    rows.insert(rows.begin(), std::move(cells));
    isSeparator.insert(isSeparator.begin(), false);
    // Separator under the header. (Note: an `{}` argument would pick
    // the initializer_list overload and insert nothing.)
    rows.insert(rows.begin() + 1, std::vector<std::string>{});
    isSeparator.insert(isSeparator.begin() + 1, true);
}

void
TablePrinter::row(std::vector<std::string> cells)
{
    columns = std::max(columns, cells.size());
    rows.push_back(std::move(cells));
    isSeparator.push_back(false);
}

void
TablePrinter::separator()
{
    rows.push_back({});
    isSeparator.push_back(true);
}

std::string
TablePrinter::render() const
{
    std::vector<std::size_t> widths(columns, 0);
    for (const auto &r : rows)
        for (std::size_t c = 0; c < r.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());

    std::ostringstream os;
    if (!title.empty())
        os << "== " << title << " ==\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (isSeparator[i]) {
            for (std::size_t c = 0; c < columns; ++c) {
                os << std::string(widths[c], '-');
                if (c + 1 < columns)
                    os << "-+-";
            }
            os << "\n";
            continue;
        }
        const auto &r = rows[i];
        for (std::size_t c = 0; c < columns; ++c) {
            std::string cell = c < r.size() ? r[c] : "";
            // Left-align the first column (labels), right-align data.
            os << (c == 0 ? padRight(cell, widths[c])
                          : padLeft(cell, widths[c]));
            if (c + 1 < columns)
                os << " | ";
        }
        os << "\n";
    }
    return os.str();
}

std::string
TablePrinter::renderCsv() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (isSeparator[i])
            continue;
        const auto &r = rows[i];
        for (std::size_t c = 0; c < columns; ++c) {
            std::string cell = c < r.size() ? r[c] : "";
            // Quote cells containing separators.
            if (cell.find_first_of(",\"") != std::string::npos) {
                std::string quoted = "\"";
                for (char ch : cell)
                    quoted += ch == '"' ? std::string("\"\"")
                                        : std::string(1, ch);
                quoted += '"';
                cell = quoted;
            }
            os << cell;
            if (c + 1 < columns)
                os << ",";
        }
        os << "\n";
    }
    return os.str();
}

} // namespace inpg
