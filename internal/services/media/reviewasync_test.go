package media

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dsb/internal/core"
)

func bootMediaAsync(t *testing.T) *Media {
	t.Helper()
	app := core.NewApp("media-async-test", core.Options{})
	t.Cleanup(func() { app.Close() })
	m, err := New(app, Config{AsyncReviews: true})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	mv := Movie{ID: "mv-1", Title: "The Heap", Year: 2019, Genre: "drama"}
	if err := m.SeedMovie(mv, "A memory allocator falls in love.", nil, nil); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return m
}

// TestAsyncReviewsReadYourWrites pins the AsyncReviews contract end to end:
// the review list serves the new review immediately (the critical store is
// synchronous), while the rating aggregate and the text index converge once
// the enrich group drains.
func TestAsyncReviewsReadYourWrites(t *testing.T) {
	m := bootMediaAsync(t)
	token := register(t, m, "critic")
	ctx := context.Background()

	var resp ComposeReviewResp
	if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{
		Token: token, MovieTitle: "The Heap", Text: "unforgettable allocation", Rating: 8,
	}, &resp); err != nil {
		t.Fatal(err)
	}

	// Read-your-writes on the review list, before any drain: Compose returned
	// at broker ack, but the review itself was stored synchronously.
	var page MoviePage
	if err := m.Frontend.Do(ctx, "GET", "/movies/The Heap", nil, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Reviews) != 1 || page.Reviews[0].ID != resp.Review.ID {
		t.Fatalf("review list before drain = %+v", page.Reviews)
	}

	// The follow-ups land behind the write: drain the enrich group, then the
	// aggregate and the text index must both reflect the review.
	if err := m.DrainReviews(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var movie GetMovieResp
	if err := m.MovieDB.Call(ctx, "Get", GetMovieReq{ID: "mv-1"}, &movie); err != nil {
		t.Fatal(err)
	}
	if movie.Movie.NumRating != 1 || movie.Movie.AvgRating != 8 {
		t.Fatalf("aggregate after drain = %+v", movie.Movie)
	}
	var found SearchReviewsResp
	if err := m.ReviewSearch.Call(ctx, "Search", SearchReviewsReq{Query: "unforgettable"}, &found); err != nil {
		t.Fatal(err)
	}
	if len(found.IDs) != 1 || found.IDs[0] != resp.Review.ID {
		t.Fatalf("search after drain = %+v", found.IDs)
	}

	// A second review for the same movie folds into the same aggregate.
	if err := m.ComposeReview.Call(ctx, "Compose", ComposeReviewReq{
		Token: token, MovieTitle: "The Heap", Text: "heap of fun", Rating: 6,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.DrainReviews(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.MovieDB.Call(ctx, "Get", GetMovieReq{ID: "mv-1"}, &movie); err != nil {
		t.Fatal(err)
	}
	if movie.Movie.NumRating != 2 || movie.Movie.AvgRating != 7 {
		t.Fatalf("aggregate after second review = %+v", movie.Movie)
	}
}

// TestCloseStopsReviewWorkers shuts the deployment down with the enrich
// workers parked on their standing push streams: Close must return within
// a second, and once the app is closed every session, stream, and reopen
// loop must have unwound (goroutines back to the pre-boot baseline).
func TestCloseStopsReviewWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	m := bootMediaAsync(t)
	token := register(t, m, "closer")
	if err := m.ComposeReview.Call(context.Background(), "Compose", ComposeReviewReq{
		Token: token, MovieTitle: "The Heap", Text: "closing credits", Rating: 7,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.DrainReviews(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close did not return within 1s; an enrich worker is stuck on its push stream")
	}
	m.App.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+5 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
