package repro.core

package object lang {

  implicit final class TGraphEdges(private val g: TGraph) extends AnyVal {

    /** Out-edges of node `i` as (target, labels), farthest target first. */
    def outEdges(i: Int): Vector[(Int, Vector[Label])] =
      g.edges.iterator.collect { case ((`i`, j), ls) => (j, ls) }.toVector.sortBy(-_._1)
  }
}
