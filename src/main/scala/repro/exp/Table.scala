package repro.exp

/** An evaluation table as data: a title, rows named by their labels (one
  * per entry of `labelNames`) and named value columns. Suites read a cell
  * by its row labels and column name; [[render]] is the one printed form.
  */
final case class Table(title: String, labelNames: Seq[String], columns: Seq[Table.Column],
                       rows: Seq[Table.Row]) {
  for (r <- rows) require(r.labels.size == labelNames.size && r.values.size == columns.size,
    s"$title: row $r does not match labels $labelNames and columns ${columns.map(_.name)}")

  /** The cell of the row labelled `labels` in column `column`. */
  def apply(labels: String*)(column: String): Double = {
    val c = columns.indexWhere(_.name == column)
    if (c < 0) throw new NoSuchElementException(s"$title: no column $column in ${columns.map(_.name)}")
    rows.find(_.labels == labels).getOrElse(
      throw new NoSuchElementException(s"$title: no row ${labels.mkString("/")}")).values(c)
  }

  /** The title, then a header line and one line per row: labels left-aligned,
    * values right-aligned with their column's decimals.
    */
  def render: String = {
    val header = labelNames ++ columns.map(_.name)
    val body = rows.map(r => r.labels ++ r.values.zip(columns).map { case (v, c) => s"%.${c.decimals}f".format(v) })
    val widths = header.indices.map(i => (header +: body).map(_(i).length).max)
    def line(cells: Seq[String]): String = cells.indices.map { i =>
      val pad = " " * (widths(i) - cells(i).length)
      if (i < labelNames.size) cells(i) + pad else pad + cells(i)
    }.mkString("  ")
    (title +: (header +: body).map(line)).mkString("\n")
  }
}

object Table {
  final case class Column(name: String, decimals: Int)
  final case class Row(labels: Seq[String], values: Seq[Double])
}
