package dlbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One finished span: a harness call into a program layer. `parent` is the
  * id of the enclosing span, or -1 at the top level.
  */
final case class Span(id: Int, parent: Int, name: String, layer: String, run: String,
                      startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. Spans are recorded only when `enabled`; a
  * disabled tracer just runs the body, so untraced runs record nothing. All
  * spans are opened from the benchmark's own (single) thread.
  */
final class Tracer(val enabled: Boolean) {
  private val done  = mutable.ArrayBuffer.empty[Span]
  private var open  = List.empty[Int]
  private var next  = 0
  var run: String   = ""

  def span[A](name: String, layer: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = next
      val parent = open.headOption.getOrElse(-1)
      next += 1
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        done += Span(id, parent, name, layer, run, t0, System.nanoTime())
        open = open.tail
      }
    }

  def spans: Vector[Span] = done.sortBy(_.id).toVector

  /** Durations in seconds of the spans called `name` directly under a span
    * called `parent` during run `r`.
    */
  def seconds(r: String, parent: String, name: String): Vector[Double] = {
    val parents = done.iterator.filter(s => s.run == r && s.name == parent).map(_.id).toSet
    done.iterator.filter(s => s.run == r && s.name == name && parents(s.parent)).map(_.seconds).toVector
  }

  /** Self time per layer: each span's duration minus the part covered by its
    * child spans (children run on the same thread, so they never overlap).
    */
  def selfSeconds(r: String): Map[String, Double] = {
    val inRun = done.filter(_.run == r)
    val childNs = inRun.groupMapReduce(_.parent)(s => s.endNs - s.startNs)(_ + _)
    inRun.groupMapReduce(_.layer)(s => (s.endNs - s.startNs - childNs.getOrElse(s.id, 0L)) / 1e9)(_ + _)
  }
}

/** Process CPU, GC and heap probes from the platform MXBeans. */
object Probe {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def cpuNs: Long = os.getProcessCpuTime
  def gcMs: Long  = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum
  val nproc: Int  = Runtime.getRuntime.availableProcessors()

  /** Heap in use after a forced full collection, in MiB. */
  def retainedMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    for (_ <- 1 to 2) System.gc()
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** CPU utilisation of the process over an interval: CPU / (wall × nproc). */
  def util(cpuNs: Long, wallNs: Long): Double =
    if (wallNs <= 0) 0.0 else cpuNs.toDouble / (wallNs.toDouble * nproc)
}

/** Order statistics for sampled timings. */
object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n == 0) Double.NaN
    else if (n % 2 == 1) s(n / 2)
    else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile `q` (0..100). */
  def percentile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else s(math.min(s.length - 1, math.max(0, math.ceil(q / 100.0 * s.length).toInt - 1)))
  }
}

/** Minimal JSON rendering for the report (maps, sequences, strings,
  * numbers, booleans and null).
  */
object Json {
  def render(v: Any): String = v match {
    case null                     => "null"
    case s: String                => quote(s)
    case b: Boolean               => b.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double                => d.toString
    case n: Int                   => n.toString
    case n: Long                  => n.toString
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]          => xs.iterator.map(render).mkString("[", ",", "]")
    case other                    => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }
}
