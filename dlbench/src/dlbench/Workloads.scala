package dlbench

import java.io.{ByteArrayOutputStream, PrintStream}
import java.security.MessageDigest

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.db.{Database, Example}
import repro.core.learn._
import repro.core.logic.Definition
import repro.exp.{Bench, ExpScale, Tables, TaskData}
import repro.spark.{Repair, SimIndex, SimJoin}

/** The system a workload runs, configured as in `repro.exp.Bench`. */
sealed trait SystemKind
object SystemKind {
  /** DLearn: top-k_m similarity index, MD-only coverage. */
  case object DLearn extends SystemKind
  /** DLearn-Repaired: minimal CFD repair, then MD-only DLearn. */
  case object DLearnRepaired extends SystemKind
}

/** One benchmark workload: a paper-table cell. The dataset (database and
  * example pool) is fixed; the training split is the pool's first
  * `train` examples and the workload seed draws the held-out `test`
  * examples from the rest of the pool.
  *
  * @param f1Floor lowest held-out F1 the output check accepts
  */
final case class Workload(
    name: String,
    system: SystemKind,
    km: Int,
    f1Floor: Double,
    builder: String,
    train: (Int, Int),
    test: (Int, Int),
    task: SparkSession => TaskData,
)

object Workloads {

  /** Database scale and example pools: Table 3 scale reduced so that a
    * run fits the benchmark's time budget. The databases are built with the
    * `Tables` builders' default seeds (movies 42, papers 777).
    */
  val movies = ExpScale.tiny.copy(nMovies = 1500, moviesEx = (100, 200))
  val papers = ExpScale.tiny.copy(nPapers = 300, papersEx = (100, 250))

  val all: Vector[Workload] = Vector(
    Workload("movies-sim", SystemKind.DLearn, km = 5, f1Floor = 0.6, "moviesTask", (40, 80), (40, 100),
      spark => Tables.moviesTask(spark, movies, nMds = 1, p = 0.0)),
    Workload("papers-repaired", SystemKind.DLearnRepaired, km = 10, f1Floor = 0.8, "papersTask", (60, 120), (25, 75),
      spark => Tables.papersTask(spark, papers, p = 0.10)),
  )

  /** Set-ups per pass; `setup_s` is their median. */
  val setupRepeats = 3

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; one of ${all.map(_.name).mkString(", ")}")
    )

  /** The first `nTrain` examples, and `nTest` of the rest drawn with `seed`. */
  def split(pool: Vector[Example], nTrain: Int, nTest: Int, seed: Long): (Vector[Example], Vector[Example]) = {
    val (train, rest) = pool.splitAt(nTrain)
    (train, new Random(seed).shuffle(rest).take(nTest))
  }

  def sha(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).map(b => f"$b%02x").mkString.take(16)

  def examplesHash(pos: Seq[Example], neg: Seq[Example]): String =
    sha((pos ++ neg).map(e => e.args.mkString("|") + (if (e.positive) "+" else "-")).mkString("\n"))
}

/** Everything one pass of a workload produced, kept live so the traced run
  * can replay layer calls on it and `retained_mb` sees it.
  */
final class Pass(
    val workload: Workload,
    val task: TaskData,
    val frames: Map[String, DataFrame],
    val db: Database,
    val learnDb: Database,
    val index: SimIndex,
    val params: LearnParams,
    val learner: DLearn,
    val trainPos: Vector[GroundEx],
    val trainNeg: Vector[GroundEx],
    val testPos: Vector[GroundEx],
    val testNeg: Vector[GroundEx],
    val definition: Definition,
    val stats: LearnStats,
    val metrics: Metrics,
    val setupNs: Long,
    val prepNs: Long,
    val prepCpuNs: Long,
    val learnNs: Long,
    val loopCpuNs: Long,
    val loopNs: Long,
    val loopGcMs: Long,
    val repairNs: Long,
    val learnerLog: Vector[String],
) {
  def setupS: Double = setupNs / 1e9
  def prepS: Double  = prepNs / 1e9
  def learnS: Double = learnNs / 1e9
  def modelS: Double = prepS + learnS
  def defHash: String = Workloads.sha(definition.render)
  def examplesHash: String =
    Workloads.examplesHash((trainPos ++ testPos).map(_.ex), (trainNeg ++ testNeg).map(_.ex))

  /** Output check: F1 floor, and a non-empty definition whose clauses are
    * all head-connected. Returns the reasons it fails (empty when it passes).
    */
  def problems: Vector[String] = {
    val b = Vector.newBuilder[String]
    if (!(metrics.f1 >= workload.f1Floor)) b += f"f1 ${metrics.f1}%.4f below floor ${workload.f1Floor}"
    if (definition.isEmpty) b += "empty definition"
    if (!definition.clauses.forall(c => c.body.nonEmpty && c.headConnected)) b += "clause not head-connected"
    b.result()
  }

  def release(): Unit = frames.values.foreach(_.unpersist())
}

object Pass {

  /** Run one pass of `w`: set-up `setupRepeats` times, the system's
    * preprocessing, grounding plus `DLearn.learn` on the training split, and
    * `Eval.evaluate` on the held-out split. Layer calls are wrapped in `tr` spans; when
    * `learnerLog` is set the learner's `[dlearn]` lines are captured.
    */
  def run(spark: SparkSession, w: Workload, seed: Long, tr: Tracer, learnerLog: Boolean,
          setupRepeats: Int = Workloads.setupRepeats): Pass = {
    // ---- set-up: task generation + injection, dirty database materialized;
    // repeated, the median time reported and the last repeat's task used
    val setups = Vector.fill(setupRepeats) {
      val s0 = System.nanoTime()
      val (task, frames, db) = tr.span("setup", "bench") {
        val task = tr.span(s"Tables.${w.builder}", "dirty")(w.task(spark))
        val frames = tr.span("frames.materialize", "dirty") {
          task.frames.map { case (rel, df) => val c = df.cache(); c.count(); rel -> c }
        }
        (task, frames, tr.span("Database.fromFrames", "core.db")(Database.fromFrames(task.spec.schema, frames)))
      }
      (task, frames, db, System.nanoTime() - s0)
    }
    setups.init.foreach(_._2.values.foreach(_.unpersist()))
    val (task, frames, db, _) = setups.last
    val spec    = task.spec
    val setupNs = Stats.median(setups.map(_._4.toDouble)).toLong

    // ---- preprocessing charged to the system (repro.exp.Bench)
    val c0 = Probe.cpuNs
    val p0 = System.nanoTime()
    var repairNs = 0L
    val (learnDb, index) = tr.span("prep", "bench")(w.system match {
      case SystemKind.DLearnRepaired =>
        val repaired = tr.span("Repair.repairAll", "spark")(Repair.repairAll(frames, spec.cfds))
        val repDb    = tr.span("Database.fromFrames", "core.db")(Database.fromFrames(spec.schema, repaired))
        repairNs = System.nanoTime() - p0
        (repDb, tr.span("SimJoin.buildIndex", "spark")(SimJoin.buildIndex(spark, repDb, spec.mds, w.km)))
      case SystemKind.DLearn =>
        // Bench builds one index at its largest k_m and truncates it.
        val kmMax = new Bench(spark, task, Tables.baseParams).KmMax
        val full  = tr.span("SimJoin.buildIndex", "spark")(SimJoin.buildIndex(spark, db, spec.mds, kmMax))
        (db, if (w.km >= kmMax) full else full.truncated(w.km))
    })
    val prepNs    = System.nanoTime() - p0
    val prepCpuNs = Probe.cpuNs - c0

    // ---- learning: ground the training split, then DLearn.learn
    val params = Tables.baseParams.copy(
      mdMode = MdMode.SimMd,
      useCfdGroups = false,
      d = task.d,
    )
    val learner = new DLearn(learnDb, spec, index, params)
    val (trP, teP) = Workloads.split(task.pos, w.train._1, w.test._1, seed)
    val (trN, teN) = Workloads.split(task.neg, w.train._2, w.test._2, seed)
    // Untimed warm-up: learning from a quarter of the training split compiles
    // the learner's hot paths, so the timed learn below runs warm code
    // (a cold first learn varied by a third between identical runs).
    tr.span("warmup", "bench") {
      val wp = tr.span("Coverage.groundAll", "core.learn")(learner.coverage.groundAll(learner.builder, trP.take(trP.size / 4)))
      val wn = tr.span("Coverage.groundAll", "core.learn")(learner.coverage.groundAll(learner.builder, trN.take(trN.size / 4)))
      tr.span("DLearn.learn", "core.learn")(learner.learn(wp.map(_.ex), wn.map(_.ex), Some((wp, wn))))
    }
    val log = new ByteArrayOutputStream()
    var (loopNs, loopCpuNs, loopGcMs) = (0L, 0L, 0L)
    val l0  = System.nanoTime()
    val (trPG, trNG, defn, stats) = tr.span("learn", "bench") {
      val trPG = tr.span("Coverage.groundAll", "core.learn")(learner.coverage.groundAll(learner.builder, trP))
      val trNG = tr.span("Coverage.groundAll", "core.learn")(learner.coverage.groundAll(learner.builder, trN))
      val g0   = Probe.gcMs
      val c0   = Probe.cpuNs
      val t0   = System.nanoTime()
      val (defn, stats) = tr.span("DLearn.learn", "core.learn") {
        if (!learnerLog) learner.learn(trP, trN, Some((trPG, trNG)))
        else {
          sys.props("repro.trace") = "1"
          val ps = new PrintStream(log, true, "UTF-8")
          try Console.withErr(ps)(learner.learn(trP, trN, Some((trPG, trNG))))
          finally { sys.props.remove("repro.trace"); ps.flush() }
        }
      }
      loopNs = System.nanoTime() - t0
      loopCpuNs = Probe.cpuNs - c0
      loopGcMs = Probe.gcMs - g0
      (trPG, trNG, defn, stats)
    }
    val learnNs = System.nanoTime() - l0

    // ---- held-out evaluation (not part of the model time)
    val (tePG, teNG, m) = tr.span("eval", "bench") {
      val tePG = tr.span("Coverage.groundAll", "core.learn")(learner.coverage.groundAll(learner.builder, teP))
      val teNG = tr.span("Coverage.groundAll", "core.learn")(learner.coverage.groundAll(learner.builder, teN))
      (tePG, teNG, tr.span("Eval.evaluate", "eval")(Eval.evaluate(learner, defn, tePG, teNG)))
    }

    new Pass(w, task, frames, db, learnDb, index, params, learner, trPG, trNG, tePG, teNG, defn, stats, m,
      setupNs, prepNs, prepCpuNs, learnNs, loopCpuNs, loopNs, loopGcMs, repairNs,
      log.toString("UTF-8").linesIterator.filter(_.startsWith("[dlearn]")).toVector)
  }
}
