package dlbench

import repro.core.learn.{Generalize, GIndex, Subsume}
import repro.core.logic.Clause

/** Layer calls replayed in the traced run on a pass's training data: the
  * seed bottom clause (`builder.build(first train positive, variabilize =
  * true)`) against a fixed sample of ground examples. Each replay records
  * its own samples; the sample sizes bound the traced run's length.
  */
object Replays {

  /** Example sample the replays test against. */
  val posSample = 20
  val negSample = 40
  /** Timed repetitions of the cheap whole-clause replays. */
  val reps = 5
  /** Subsumption calls timed (≥ 1000 so that p99 has ten samples beyond). */
  val subsumeCalls = 1000
  /** Slowest `false` answers re-checked at 10× the node cap. */
  val capRechecks = 20
  /** ARMG calls timed (≥ 100 so that p90 has ten samples beyond). */
  val armgCalls = 100

  private def timedMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  def run(p: Pass, tr: Tracer): Map[String, Double] = {
    val cov    = p.learner.coverage
    val nodeCap = p.params.nodeCap
    val bottom = tr.span("BottomBuilder.build", "core.learn")(p.learner.builder.build(p.trainPos.head.ex, variabilize = true))
    val pos    = p.trainPos.take(posSample)
    val neg    = p.trainNeg.take(negSample)
    val out    = Map.newBuilder[String, Double]

    // Coverage.expand on the bottom clause.
    val expandRuns = (1 to reps).map(_ => timedMs(tr.span("Coverage.expand", "core.learn")(cov.expand(bottom))))
    val bottomExp  = expandRuns.head._1
    out += "expand.versions" -> bottomExp.size.toDouble
    out += "expand.ms"       -> Stats.median(expandRuns.map(_._2))

    // Coverage.counts on the bottom clause.
    val countRuns = (1 to reps).map(_ => timedMs(tr.span("Coverage.counts", "core.learn")(cov.counts(bottom, pos, neg))))
    out += "coverage.bottom_counts_ms" -> Stats.median(countRuns.map(_._2))

    // Union quick-reject: multi-version negatives that no bottom expansion
    // subsumes through their union index (one test refutes every version).
    val multi    = neg.filter(_.expansions.size > 1)
    val rejected = tr.span("Subsume.subsumes", "core.learn") {
      multi.count(g => !bottomExp.exists(ci => Subsume.subsumes(ci, g.union, nodeCap)))
    }
    out += "coverage.union_multi"        -> multi.size.toDouble
    out += "coverage.union_reject_ratio" -> (if (multi.isEmpty) 0.0 else rejected.toDouble / multi.size)

    // ARMG of the bottom clause towards sampled training positives.
    val armgTargets = Iterator.continually(p.trainPos.drop(1)).flatten.take(armgCalls).toVector
    val armg = armgTargets.map { g =>
      timedMs(tr.span("Generalize.armg", "core.learn")(Generalize.armg(bottom, g.raw, p.params.maxFrontier)))
    }
    out += "armg.calls"      -> armg.size.toDouble
    out += "armg.ms_p50"     -> Stats.median(armg.map(_._2))
    out += "armg.ms_p90"     -> Stats.percentile(armg.map(_._2), 90)
    out += "armg.kept_ratio" -> armg.map(_._1.body.size.toDouble / bottom.body.size).sum / armg.size

    // θ-subsumption latency: the bottom clause, its ARMG candidates and the
    // learned clauses against every version of the sampled examples.
    val clauses: Vector[Clause] =
      (bottomExp ++ armg.map(_._1).distinct.flatMap(cov.expand) ++ p.definition.clauses.flatMap(cov.expand)).distinct
    val targets: Vector[GIndex] = (pos ++ neg).flatMap(_.expansions)
    val pairs = Iterator.continually(for (c <- clauses.iterator; g <- targets.iterator) yield (c, g))
      .flatten.take(subsumeCalls).toVector
    val sub = tr.span("Subsume.subsumes", "core.learn") {
      pairs.map { case (c, g) =>
        val t0 = System.nanoTime()
        val r  = Subsume.subsumes(c, g, nodeCap)
        (c, g, r, (System.nanoTime() - t0) / 1e3)
      }
    }
    out += "subsume.calls"  -> sub.size.toDouble
    out += "subsume.us_p50" -> Stats.median(sub.map(_._4))
    out += "subsume.us_p99" -> Stats.percentile(sub.map(_._4), 99)

    // Cap flips: the slowest `false` answers are the ones that may have hit
    // the node cap; re-check them with a ten times larger cap.
    val recheck = sub.filter(!_._3).sortBy(-_._4).take(capRechecks)
    val flips   = tr.span("Subsume.subsumes", "core.learn") {
      recheck.count { case (c, g, _, _) => Subsume.subsumes(c, g, nodeCap * 10) }
    }
    out += "subsume.cap_rechecked" -> recheck.size.toDouble
    out += "subsume.cap_flips"     -> flips.toDouble
    out.result()
  }
}
