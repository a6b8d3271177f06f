package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is the id of the enclosing span
  * (-1 for a pass's root span); spans of one pass share `pass`.
  */
final case class Span(id: Int, parent: Int, pass: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Records spans around the benchmark's calls into the program. Spans stay
  * in memory and are written out once, when the run ends. A disabled tracer
  * only runs the body.
  */
final class Tracer {
  private val recorded = ArrayBuffer.empty[Span]
  private var nextId   = 0
  private var stack    = List.empty[Int]
  private var enabled  = false
  private var passId   = -1

  /** Trace the calls made until `end()` as pass `id`. */
  def begin(id: Int): Unit = { enabled = true; passId = id }
  def end(): Unit = enabled = false

  def apply[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        recorded += Span(id, parent, passId, name, t0, t1)
      }
    }

  def spans: Vector[Span] = recorded.toVector

  /** Span duration minus the time its direct children cover. */
  def selfNs(s: Span): Long =
    s.durNs - recorded.iterator.filter(_.parent == s.id).map(_.durNs).sum

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val lines = recorded.sortBy(_.id).map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"pass":${s.pass},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}
