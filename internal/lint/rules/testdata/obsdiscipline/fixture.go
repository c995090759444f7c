// Fixture for the obsdiscipline analyzer: type-checked under the fake import
// path fix/internal/ctcr, so the pipeline-package matcher applies.
package fix

import (
	"context"
	"fmt"
	"log"
	"os"

	"categorytree/internal/obs"
)

func globalRegistry() {
	reg := obs.Default() // want "obs.Default records into the process-global registry"
	_ = reg
}

func contextual(ctx context.Context) {
	reg := obs.FromContext(ctx) // context-scoped accessor: fine
	_ = reg
}

func discarded(ctx context.Context) {
	_, ctx2 := obs.StartSpanContext(ctx, "stage") // want "span from StartSpanContext is discarded"
	_ = ctx2
}

func neverEnded(ctx context.Context) {
	sp, ctx2 := obs.StartSpanContext(ctx, "stage") // want "span sp is started but never ended"
	_ = sp
	_ = ctx2
}

func leakyReturn(ctx context.Context, fail bool) error {
	sp, _ := obs.StartSpanContext(ctx, "stage")
	if fail {
		return fmt.Errorf("fail") // want "return leaves span sp unended"
	}
	sp.End()
	return nil
}

func deferredEnd(ctx context.Context, fail bool) error {
	sp, _ := obs.StartSpanContext(ctx, "stage")
	defer sp.End()
	if fail {
		return fmt.Errorf("fail")
	}
	return nil
}

func failedEnd(ctx context.Context, err error) error {
	sp, _ := obs.StartSpanContext(ctx, "stage")
	if err != nil {
		sp.EndErr(err) // ends the span: the return below leaves nothing open
		return err
	}
	sp.End()
	return nil
}

func linearEnd(ctx context.Context) {
	sp, _ := obs.StartSpanContext(ctx, "stage")
	sp.End()
}

func escapes(ctx context.Context) {
	sp, _ := obs.StartSpanContext(ctx, "stage")
	finish(sp) // transferring the span hands off End responsibility
}

func finish(sp obs.Span) { sp.End() }

func barePrints() {
	log.Printf("stage done")    // want "log.Printf bypasses the structured logger"
	fmt.Printf("debug %d\n", 1) // want "fmt.Printf bypasses the structured logger"
	fmt.Println("progress")     // want "fmt.Println bypasses the structured logger"
	fmt.Fprintf(os.Stderr, "explicit writers stay fine\n")
}
